//! A frame header is 20 bytes from a peer that has proved nothing yet:
//! the length it states must not size an allocation. `frame_read` grows
//! its buffer with the bytes that actually arrive, so a header claiming
//! the full 1 GiB cap followed by silence costs one read chunk, not a
//! gigabyte (before PROTOCOL_VERSION 2 both socket readers did
//! `vec![0; len + 8]` straight from the header).
//!
//! The same holds one layer in, for the longest field a frame carries: a
//! sample's QOI decodes into a shared `Arc<[f64]>`, and the length its
//! prefix states is checked against the bytes that are left before the
//! slice is allocated, as `decode_vec` checks a `Vec<f64>`'s.
//!
//! A binary of its own because it installs the counting
//! `#[global_allocator]` of `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocations_in, large_allocations_in};
use std::io::ErrorKind;
use uq_mlmcmc::coupled::CoarseSample;
use uq_mlmcmc::ledger::ServeOutcome;
use uq_mlmcmc::store::StoreError;
use uq_mlmcmc::wire::{frame_check, frame_encode, frame_read, FrameFormat};
use uq_parallel::scheduler::Msg;
use uq_parallel::{decode_frame, encode_frame, Frame};

const FORMAT: FrameFormat = FrameFormat {
    magic: b"UQNETFR\0",
    version: 2,
    max_len: 1 << 30,
};

#[test]
fn a_header_claiming_a_gibibyte_allocates_under_a_mebibyte() {
    let mut header = frame_encode(&FORMAT, &0u8);
    header.truncate(20);
    header[12..20].copy_from_slice(&(1u64 << 30).to_le_bytes());
    for arrived in [0usize, 1, 5000] {
        let mut stream = header.clone();
        stream.resize(20 + arrived, 0xAB);
        let ((_count, requested), result) =
            allocations_in(|| frame_read::<Vec<f64>>(&FORMAT, &mut stream.as_slice()));
        let err = result.expect_err("the stream ended inside the frame");
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
        assert!(
            requested < 1 << 20,
            "{arrived} payload bytes arrived, {requested} bytes requested"
        );
    }
}

#[test]
fn a_large_honest_frame_allocates_in_proportion_to_what_arrived() {
    let value: Vec<f64> = (0..100_000).map(f64::from).collect();
    let bytes = frame_encode(&FORMAT, &value);
    let ((_count, requested), result) =
        allocations_in(|| frame_read::<Vec<f64>>(&FORMAT, &mut bytes.as_slice()));
    let (back, wire_len) = result.expect("reads").expect("one frame");
    assert_eq!((back, wire_len), (value, bytes.len()));
    // the receive buffer (grown by doubling: < 4x in all) plus the value
    assert!(requested < 5 * bytes.len() as u64);
}

#[test]
fn a_lying_qoi_length_is_a_typed_error_and_sizes_no_allocation() {
    const QOI_LEN: u64 = 1089;
    let sample = |first: f64| {
        let qoi = (0..QOI_LEN).map(|i| first + i as f64).collect();
        CoarseSample::plain(vec![first, 0.5, -0.25], -1.5, qoi)
    };
    let outcome = ServeOutcome::new(sample(1.0), Some(sample(2.0)), true);
    let msgs = [
        // the proposal and its mate
        (
            2,
            Msg::CoarseSample {
                level: 0,
                sample: Box::new(outcome.proposal.clone()),
            },
        ),
        // the pairing state
        (
            1,
            Msg::ServeDone {
                requester: 7,
                level: 0,
                serves: 12,
                pairing: outcome.pairing.map(Box::new),
                diverged: outcome.diverged,
            },
        ),
    ];
    for (qois, msg) in msgs {
        let honest = encode_frame(&Frame::Data {
            to: 4,
            from: 5,
            msg,
        });
        // honest, each QOI decodes straight into its shared slice
        let (large, decoded) = large_allocations_in(|| decode_frame(&honest));
        decoded.expect("the honest frame decodes");
        assert_eq!(large, qois as u64);
        let body = honest.len() - 8;
        let length_words: Vec<usize> = (20..body - 8)
            .filter(|&at| honest[at..at + 8] == QOI_LEN.to_le_bytes())
            .collect();
        assert_eq!(length_words.len(), qois);
        for at in length_words {
            let left = body - (at + 8);
            // absurd, one more element than bytes are left, and the
            // smallest lie: one more element than the bytes left can hold
            for lie in [1 << 40, left + 1, left / 8 + 1] {
                let mut frame = honest.clone();
                frame[at..at + 8].copy_from_slice(&(lie as u64).to_le_bytes());
                let check = frame_check(&frame[..body]);
                frame[body..].copy_from_slice(&check.to_le_bytes());
                let ((_count, requested), result) = allocations_in(|| decode_frame(&frame));
                assert!(
                    matches!(
                        result,
                        Err(StoreError::Truncated { needed, available })
                            if needed == lie * 8 && available == left
                    ),
                    "length {lie} at byte {at}: {result:?}"
                );
                // what decoded before the lie, never the lie itself
                assert!(
                    requested < frame.len() as u64,
                    "length {lie} at byte {at}: {requested} bytes requested"
                );
            }
        }
    }
}
