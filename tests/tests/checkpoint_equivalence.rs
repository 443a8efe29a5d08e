//! The resume ladder: a cut that does not fit a configuration's rank
//! layout is refused by the rung it fails, in `Run::new`, before any rank
//! is built. (That a fitting cut resumes bit-identically — written on any
//! placement, resumed on any other, after a crash or a preempt — is a set
//! of rows of the conformance matrix.)

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};

use uq_mlmcmc::{RunSnapshot, RunStore};
use uq_parallel::{ParallelCheckpoint, Placement, Run, Runtime, Tracer};

#[path = "common/ridge.rs"]
mod ridge;
use ridge::{deterministic, Ridge};

#[test]
fn a_cut_that_misfits_the_layout_is_refused_by_its_rung() {
    let dir = std::env::temp_dir().join(format!("uq-ckpt-misfit-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = RunStore::open(&dir).expect("open store");
    let (config, off) = (deterministic(300, 500, 33), Tracer::disabled());
    let ckpt = ParallelCheckpoint {
        store: &store,
        config_hash: 20,
        every: 40,
        on_snapshot: None,
        stop: None,
    };
    let run = Run::new(&Ridge, &config, &off, Some(&ckpt), None);
    run.on(Placement::Pool(&Runtime::new(1)))
        .expect("a live run");

    // a cut from the middle of the run
    let hashes = store.cuts().expect("index readable");
    assert!(hashes.len() >= 4, "{} snapshots", hashes.len());
    let (cut, _) = store
        .get_snapshot(&hashes[hashes.len() / 2])
        .expect("snapshot readable");

    let resume = |snap: &RunSnapshot| {
        catch_unwind(AssertUnwindSafe(|| {
            Run::new(&Ridge, &config, &off, None, Some(snap));
        }))
        .map_err(|why| *why.downcast::<String>().expect("formatted panic message"))
    };
    assert_eq!(resume(&cut), Ok(()));

    let mut moved = cut.clone();
    moved.chains[0].level = 1;
    let why = resume(&moved).expect_err("level 0's rank on level 1");
    assert!(why.contains("chain levels inconsistent"), "{why}");
    let mut forgetful = cut.clone();
    forgetful.chains[1].done_levels.pop();
    let why = resume(&forgetful).expect_err("one done flag for two levels");
    assert!(why.contains("done levels off the hierarchy"), "{why}");
    let mut short = cut.clone();
    short.collectors.pop();
    let why = resume(&short).expect_err("one collector for two levels");
    assert!(why.contains("collector count mismatch"), "{why}");
    let mut swapped = cut.clone();
    swapped.collectors.swap(0, 1);
    let why = resume(&swapped).expect_err("level 1's state in level 0's slot");
    assert!(why.contains("collector slots inconsistent"), "{why}");
    let _ = fs::remove_dir_all(&dir);
}
