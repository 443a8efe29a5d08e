//! Golden bit-identity fixture for the Poisson stack.
//!
//! The constants below were recorded from commit 9003c5b (the last one
//! with the runtime-width band factorisation, the row-dot `κ = exp(Φθ)`
//! and the per-solve observation-point lookup) and are the oracle for
//! every later change to `uq_linalg::{banded, dense}` and `uq_fem`:
//! forward outputs and log-densities are compared by `to_bits()`, the QOI
//! by an FNV-1a over the little-endian bytes of its bits, and whole runs
//! by `levels_digest`. No old code path is kept to compare against; if a
//! kernel change moves any of these, it changed the numbers every digest
//! and reference output in the repo is built on.
//!
//! One exception was re-recorded on purpose: the `m = 113` level-1
//! entries (`n = 32`), when that mesh moved from MG-CG to the band solve.
//! MG-CG stops at a relative residual of 1e-8, so its forward values were
//! the exact solve's only to that tolerance: the move changed forward
//! outputs by at most 2.1e-8 relative and log-densities by at most
//! 8.3e-8, and nothing else. The QOIs (`κ` on the QOI grid, no solve),
//! every other level and every run digest kept their bits.
//! `direct_level_one_agrees_with_mg_cg` checks the argument: the direct
//! forward and an MG-CG solve of the same system agree to 1e-7.
//!
//! A second deliberate re-record: `log κ` moved from the row sum over a
//! tabulated basis to sum factorisation over the field's 1-D tables
//! (`uq_randfield::KlTensorGrid`) on the QOI grid and on every mesh
//! whose row sum costs more than `uq_fem::poisson::DENSE_KAPPA_MAX_MADDS`.
//! That is a change of formula: the same terms summed in another order,
//! within `8 ε Σ_k |√λ_k θ_k φ_k|` of the row sum (checked point by point
//! by `uq-randfield`'s `tensor_log_kappa_is_the_row_sum_to_rounding`). It
//! moved forward outputs by at most 1.52e-14 relative, log-densities by at
//! most 4.70e-14, every QOI hash and every run digest (a run's means are
//! over the QOI). The `m = 8` meshes (`n = 4, 8`) keep the row sum, so
//! their forward outputs and log-densities kept their bits; `m = 24`
//! level 0 (`n = 8`) kept its forward outputs, and its log-densities
//! moved only through the data, which the finest level computes. Like a
//! solver switch, a change of formula re-records; a kernel change that
//! keeps the formula's order never does.

use uq_fem::assembly::assemble;
use uq_fem::poisson::build_mg_hierarchy;
use uq_fem::problem::constants::TRUTH_SEED;
use uq_fem::problem::PoissonFactory;
use uq_fem::PoissonHierarchy;
use uq_linalg::solvers::{cg, SolverOptions};
use uq_mcmc::SamplingProblem;
use uq_mlmcmc::wire::fnv1a;
use uq_parallel::{levels_digest, ParallelConfig, Placement, Run, Runtime, RuntimeConfig, Tracer};

/// Three parameters per hierarchy: the benchmark's reference θ, a
/// smooth one of larger amplitude and a rough one whose `κ` spans
/// several decades.
fn theta(m: usize, k: usize) -> Vec<f64> {
    (0..m)
        .map(|i| match k {
            0 => 0.5 * ((i + 1) as f64).sin(),
            1 => 1.5 * (0.7 * i as f64 + 0.3).cos(),
            _ => -2.0 * ((i * i) as f64 * 0.37 + 1.0).sin(),
        })
        .collect()
}

fn qoi_hash(qoi: &[f64]) -> u64 {
    let bytes: Vec<u8> = qoi.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// `log_density` bits and the bits of the 36 forward outputs.
type Eval = (u64, [u64; 36]);

/// One of the benchmark's Poisson hierarchies at `TRUTH_SEED`.
struct Golden {
    m: usize,
    levels: &'static [usize],
    /// QOI hash per θ; the QOI is the same on every level.
    qoi: [u64; 3],
    /// Per level, per θ.
    evals: &'static [[Eval; 3]],
}

/// Each level's problem is fresh and sees the three θ in order, first
/// `forward`, then `log_density` (an MG-CG level warm-starts from its
/// previous solve, so the order is part of the fixture).
#[rustfmt::skip]
const GOLDEN: [Golden; 3] = [
    Golden {
        m: 8,
        levels: &[4, 8],
        qoi: [0x957ebaac76267cf7, 0xd5a0383c8b18e4fb, 0x119c7a183f9f4aba],
        evals: &[
            [
                (0xc083171d07e9de03, [
                    0x3fae3b720ba22da6, 0x3fae64ddce25240c, 0x3faf6a82ddf7c39e, 0x3fb041667af5b126,
                    0x3fb0b0356a37b25f, 0x3fae43bacc22c554, 0x3fca7403ca2de7f2, 0x3fca984214607f8b,
                    0x3fcb7d328238cb2b, 0x3fcc7273572df604, 0x3fcd345d79e17826, 0x3fca7b43729e6caa,
                    0x3fda64f9549cbaf7, 0x3fda77b076ee8d64, 0x3fda505928477dc0, 0x3fd9e0af1fe4c80a,
                    0x3fd942d75182f323, 0x3fda68b78ead1841, 0x3fe3c58d0d021249, 0x3fe3c43b977b978a,
                    0x3fe36358ed30b8e5, 0x3fe2c236e852ea54, 0x3fe2071c8ec8588a, 0x3fe3c5498f1a6023,
                    0x3fe9f4272e2eca87, 0x3fe9e44db12231d9, 0x3fe9695ec5ac7a2c, 0x3fe8b0fb4eacb6e7,
                    0x3fe7e509773310f8, 0x3fe9f0fbaec5df30, 0x3fb6ac9588b9a23d, 0x3fb6cba65a9bdb09,
                    0x3fb78fe22679d2b7, 0x3fb86219b87089ba, 0x3fb908501f538b8f, 0x3fb6b2cc191a1400,
                ]),
                (0xc0848ac10bbea62f, [
                    0x3fad2373f283027b, 0x3fab3699dedeca86, 0x3fa91540842e8659, 0x3fa90998a6d9c754,
                    0x3faae799d4a04708, 0x3facc0e1ee955db0, 0x3fc97f057432a22b, 0x3fc7cfc6a302f136,
                    0x3fc5f29873a8b58e, 0x3fc5e86591fe8e6a, 0x3fc78aa69a0c3e26, 0x3fc928c5b0c2b1fa,
                    0x3fdca6f254e0abc7, 0x3fdb983aa6453f9e, 0x3fd88ac670b51ae6, 0x3fd65159ec016b78,
                    0x3fd5750ff1e30cac, 0x3fdc70cd985b2fc0, 0x3fe5b0ac1f5fa8e6, 0x3fe54afc6d17ed3b,
                    0x3fe38cf91af1980e, 0x3fe1c03665f923ce, 0x3fe05a69ede0a05f, 0x3fe59c55c884835e,
                    0x3feb8e8d98906a3c, 0x3feb714f8ffd1b9e, 0x3fea7903d84a9b78, 0x3fe8dbaf69c34f19,
                    0x3fe702638cb0f6f4, 0x3feb88b463a6274f, 0x3fb5da96f5e241dc, 0x3fb468f3672717e4,
                    0x3fb2cff06322e4c2, 0x3fb2c7327d23557f, 0x3fb42db35f783546, 0x3fb590a972f00644,
                ]),
                (0xc0b353660b16774d, [
                    0x3fab4ef5f7c3c8b0, 0x3faa8e3b53564cd1, 0x3fa9d7b074607c66, 0x3fabdb70d4461e22,
                    0x3fb0550ecccd85bf, 0x3fab286a3d477cb6, 0x3fc7e51738cb4f99, 0x3fc73c73e8eb8337,
                    0x3fc69cba65d46cda, 0x3fc86002b9bd5a5e, 0x3fcc94d9e667aa0e, 0x3fc7c35cf59e8d20,
                    0x3fd236128cf38ab1, 0x3fd1dcb289061906, 0x3fd1f80bd429333f, 0x3fd5c23a671acbd4,
                    0x3fdc75398eec3b02, 0x3fd224328c2a73f5, 0x3fd95a4b2667f154, 0x3fd934d1d55b8596,
                    0x3fdad522833ad714, 0x3fe063e74a167b38, 0x3fe4bf9b843c2884, 0x3fd952cc7c98a894,
                    0x3fe24e32813aa0f9, 0x3fe26096d34934cc, 0x3fe3fe73bb09afae, 0x3fe6f3d83859dda2,
                    0x3fea5b88dcbd598c, 0x3fe251e02b3d8b57, 0x3fb47b3879d2d684, 0x3fb3eaac7e80b99d,
                    0x3fb361c457485d4d, 0x3fb4e4949f34969a, 0x3fb87f963334489e, 0x3fb45e4fadf59d89,
                ]),
            ],
            [
                (0xc082e84b1279e0df, [
                    0x3fae6e1301293c60, 0x3fae52d1d955edeb, 0x3faf07ef026c3eb0, 0x3fb0a4f0e7474166,
                    0x3fb1a230b7d7cd90, 0x3fae67dbd7209dc6, 0x3fcad53a2209988f, 0x3fcade83eed59f72,
                    0x3fcb8663ad0f57ab, 0x3fccb4e16ec19ad0, 0x3fcd6565fdc7e17d, 0x3fcad2cbe8173074,
                    0x3fda2aeb1d2b30a0, 0x3fda436cbc51917c, 0x3fda5b6fb2511f89, 0x3fda030f751fb112,
                    0x3fd9720d31a13ce6, 0x3fda2cf70ca4226e, 0x3fe3dc8238810b2d, 0x3fe3e2a5c7e0f775,
                    0x3fe393885723f6ce, 0x3fe2be8d40fcef43, 0x3fe1f3bc3813b95a, 0x3fe3debdba2d3e50,
                    0x3fe9cf3feb0f0e94, 0x3fe9c813e14ace22, 0x3fe97129107c7c71, 0x3fe8af56262876a8,
                    0x3fe7f47dc28f13b8, 0x3fe9cfec8b660ccc, 0x3fb6d28e40deed48, 0x3fb6be1d63007270,
                    0x3fb745f341d12f04, 0x3fb8f7695aeae21a, 0x3fba734913c3b459, 0x3fb6cde4e1587655,
                ]),
                (0xc08480e15f9f00a9, [
                    0x3fad2c11edebbb6a, 0x3fab4cd809ad74e2, 0x3fa97974383924d7, 0x3fab6068484748b8,
                    0x3fae9d3ca15de400, 0x3facf2a613dda04e, 0x3fca6bf48e79cd0b, 0x3fc8a37984d73095,
                    0x3fc655c1b5f2ca1f, 0x3fc69fa22914b202, 0x3fc84ce1659e0d1c, 0x3fca377c8375a6e6,
                    0x3fdc0be118491105, 0x3fdacab692928b78, 0x3fd7d8f5c54d6ec4, 0x3fd5ac20284ff5e2,
                    0x3fd56165d6185438, 0x3fdbee7d37d02420, 0x3fe5f5bb7a95347c, 0x3fe5ab76d66af918,
                    0x3fe41d8653f1f655, 0x3fe1a5eecb169948, 0x3fe04d0cc4783646, 0x3fe5f27e75c084c3,
                    0x3feb361d7b62aa01, 0x3feb2765f50887b8, 0x3fea726b68773f91, 0x3fe8a0a936e2629d,
                    0x3fe70a88abb6a372, 0x3feb36d69cc4e206, 0x3fb5e10d7270cc90, 0x3fb479a2074217aa,
                    0x3fb31b172a2adba2, 0x3fb4884e3635768a, 0x3fb6f5ed79066b00, 0x3fb5b5fc8ee6383a,
                ]),
                (0xc0b351817971978a, [
                    0x3fae12fd5df6d6cf, 0x3fada710490b3eea, 0x3fab9187891d50a8, 0x3fa9cd1a88789a40,
                    0x3fac0b33479c30c0, 0x3fae15e49c0794ea, 0x3fc7be7a851c64a6, 0x3fc740d12f7ba6a2,
                    0x3fc631732f0d64b9, 0x3fc6fd239db5570d, 0x3fcc4263035885cb, 0x3fc7b5d5438cbc72,
                    0x3fd2755d25b4a1c2, 0x3fd1fc12ca2c4c16, 0x3fd1d08aeb87421e, 0x3fd526ab5337b9ee,
                    0x3fdc764e3ae41ad2, 0x3fd265bde0a961d8, 0x3fd8f2651daf9435, 0x3fd84f5e3e7a184e,
                    0x3fd9060fcd77b62a, 0x3fe02ab7a52b6a25, 0x3fe49db6d8b77a0d, 0x3fd8daa69c7d7f70,
                    0x3fe2eac216a86d7a, 0x3fe2dd5d806b71e9, 0x3fe41efc9ede3b5e, 0x3fe7ccca7a328003,
                    0x3fea30e303f05ada, 0x3fe2e5cf10c6e204, 0x3fb68e3e0679211b, 0x3fb63d4c36c86f2f,
                    0x3fb4ad25a6d5fc7e, 0x3fb359d3e65a73b0, 0x3fb5086675b52490, 0x3fb6906b7505afb0,
                ]),
            ],
        ],
    },
    Golden {
        m: 24,
        levels: &[8, 16],
        qoi: [0x9e5f1a2800779680, 0x7ffd8ca62b9b7c56, 0x4ba80ed32b2221e5],
        evals: &[
            [
                (0xc08db8a6799489b6, [
                    0x3fb12d221ff523db, 0x3faec4e9535fd2be, 0x3fac76dc6846852d, 0x3fb01b02b86b4a14,
                    0x3fb2b2630240ffb0, 0x3fb0f5b4bf7ab348, 0x3fcef7b697ecce24, 0x3fcd1d6d3de9d792,
                    0x3fcb64bd1ff658d3, 0x3fccfe40edb1e302, 0x3fcf30500a31d470, 0x3fcec5086a4bb658,
                    0x3fdb063073e9b1cf, 0x3fdad4f448bf9d74, 0x3fda8c939d6936d7, 0x3fda0b4a3463d7bc,
                    0x3fd9ad4ec6f1ae9e, 0x3fdaff8867729e9e, 0x3fe307e04fed1dd4, 0x3fe373c19bd2ebcc,
                    0x3fe3bd0bfa673652, 0x3fe2defae82b8f44, 0x3fe20d8ea3d87a27, 0x3fe31056fdd464d1,
                    0x3fe9ce8c00205f0a, 0x3fea2da013e0954a, 0x3fe9fd7ac3567272, 0x3fe8e2430db75908,
                    0x3fe7f39dc5685906, 0x3fe9db330a043f06, 0x3fb9c3b32fefb5c8, 0x3fb713aefe87de0e,
                    0x3fb559254e34e3e2, 0x3fb8288414a0ef1e, 0x3fbc0b9483617f88, 0x3fb9708f1f380ceb,
                ]),
                (0xc09e6f769543548d, [
                    0x3fa46884ed7f74dc, 0x3fa441b7c8c3d376, 0x3fa62230f4bef6be, 0x3fad98c03bbbd18a,
                    0x3fad8e1b24cc0bc6, 0x3fa468dbac7561ce, 0x3fc25b952c9c8fa5, 0x3fc16528641dd5bf,
                    0x3fc267f9684b9eca, 0x3fc6ad550ef28ee2, 0x3fc6d267157ee605, 0x3fc224c7cce03524,
                    0x3fd952039bb761ff, 0x3fd7f1593939f6e8, 0x3fd60f4e988a9ec8, 0x3fd489b5d32f5265,
                    0x3fd45511d2a3b4ab, 0x3fd913b92f9ba712, 0x3fe6a697f63b1182, 0x3fe691baaf622d38,
                    0x3fe4f61112cb24f6, 0x3fe146190b23c884, 0x3fe0a12f84df3f01, 0x3fe6a8195d3d0176,
                    0x3fe9aa7624e97e90, 0x3fe97aca78db1614, 0x3fe8ac29a8acf53b, 0x3fe67953304e892c,
                    0x3fe674a757e5f974, 0x3fe9a34708cd78ba, 0x3fae9cc7643f2f4a, 0x3fae6293ad25bd30,
                    0x3fb099a4b78f390e, 0x3fb632902cccdd27, 0x3fb62a945b9908d4, 0x3fae9d4982b012b4,
                ]),
                (0xc0b7daf29bedea91, [
                    0x3fa914a6c863562e, 0x3fa30599292c8634, 0x3f9428b425c76336, 0x3f9117874790ca54,
                    0x3f9dc2c6aebdfd92, 0x3fa885bfb0a48d20, 0x3fc6da6bc4f863b8, 0x3fc518ee42c63cfe,
                    0x3fbf155460932780, 0x3fb94ec43dc21e9d, 0x3fc41bbdf9491486, 0x3fc6baa095cb769c,
                    0x3fd14ea7a8ebca42, 0x3fd1dbf35cd050fd, 0x3fd2d751dfe0adbd, 0x3fd70b4f74c370a4,
                    0x3fdcb4413e4da5f2, 0x3fd159f6fa056564, 0x3fd597cfdb0f237f, 0x3fd5846837ebb73b,
                    0x3fd7145e44ac5d25, 0x3fe084707690f2e0, 0x3fe3fd6a7e373c50, 0x3fd58a4f5dfdd354,
                    0x3fe7aa3927b1f3da, 0x3fe6c61294eb7d37, 0x3fe5a64d670d5b10, 0x3fe723b0372611e0,
                    0x3fe869e3f8c2b0e6, 0x3fe7a48b6d827df5, 0x3fb2cf7d164a80a2, 0x3fac8865bdc2c94d,
                    0x3f9e3d0e38ab14d2, 0x3f99a34aeb592f7f, 0x3fa65215030e7e2e, 0x3fb2644fc47b69d8,
                ]),
            ],
            [
                (0xc08e0b647c877aba, [
                    0x3fb10498e5824bc1, 0x3fade761b3f60378, 0x3fabd628049b5771, 0x3fb0014c3945b500,
                    0x3fb2c5256c9a8322, 0x3fb0acd085341fb4, 0x3fcf03a8b1827ec2, 0x3fccff22bb5057bb,
                    0x3fcb3efc65db1774, 0x3fccf747b6aae434, 0x3fcf67d2bae57b74, 0x3fceba95b93c937c,
                    0x3fdaf8033210c24c, 0x3fdac1305fb44932, 0x3fda8c0ef26f044e, 0x3fd9fd73aca65b3f,
                    0x3fd9a7efd65d5931, 0x3fdaedbe1a342b34, 0x3fe2f904a0ca1b4d, 0x3fe367c875c6d080,
                    0x3fe3c89340186de0, 0x3fe2e297d40d1a0d, 0x3fe21082ab6b53e4, 0x3fe304df97d848a4,
                    0x3fe9caa41ad4ea70, 0x3fea39cf9e5876e8, 0x3fea0cb69b1309c1, 0x3fe8e6626f4cb0aa,
                    0x3fe7efa8e7c9c5fe, 0x3fe9deea23db8348, 0x3fb9e01ebe12ad0c, 0x3fb701dac02b1e17,
                    0x3fb55901789747cc, 0x3fb8342896eba211, 0x3fbc18f46207161d, 0x3fb969db43c0265d,
                ]),
                (0xc09d84c7e2a04285, [
                    0x3fa591b832712bcc, 0x3fa60cb72857dc08, 0x3fa6733c9ca96022, 0x3fb031065916122a,
                    0x3fafae52ba24c109, 0x3fa5bdab05e3095f, 0x3fc2d0d07ded6cee, 0x3fc1a0a11551c5d9,
                    0x3fc2a332875148f9, 0x3fc71697172eac6d, 0x3fc707f346be6b68, 0x3fc28748c3939df4,
                    0x3fd9da9d1e6726e0, 0x3fd812304252931d, 0x3fd5f65ad7726f62, 0x3fd443e1b1347e7e,
                    0x3fd44ac0634a1168, 0x3fd97ef655a1b6c1, 0x3fe6ccc2c48861c6, 0x3fe6cef273c8f351,
                    0x3fe5455751287f8c, 0x3fe151b782c0e448, 0x3fe0d4a285c5b4ab, 0x3fe6d3e6e91248b9,
                    0x3fe98ca781cf6f3c, 0x3fe9551672be677d, 0x3fe8ac24e0b9874d, 0x3fe648e247f47d20,
                    0x3fe683780a731b06, 0x3fe981a52f9e02ac, 0x3fafc6b8cbb1814e, 0x3fafb6c3d2a22d2a,
                    0x3fb0a6bdf29b173a, 0x3fb70f17b3d8166c, 0x3fb69f5ec3594475, 0x3fafcdd796689728,
                ]),
                (0xc0b75459520e1e5d, [
                    0x3faa87bdb1e55d23, 0x3fa30f422ade47c7, 0x3f93db690513cdca, 0x3f91aa91fac4b874,
                    0x3f9a1f1de691c032, 0x3fa96a932693e75a, 0x3fc73496b4ed0d5d, 0x3fc5109d3d595e70,
                    0x3fbdb641d262da59, 0x3fb83b15827ac340, 0x3fc462c58074821a, 0x3fc6f7fab8c42370,
                    0x3fd1a9d211b3899c, 0x3fd23393cc7c9731, 0x3fd30b390b522e56, 0x3fd6d8c54f07b986,
                    0x3fdd20452b5fcb21, 0x3fd1ba01d5bb4552, 0x3fd62e5b4ed7cd6a, 0x3fd5c60ab396bdd5,
                    0x3fd743232f448127, 0x3fe05cfe98bf61b6, 0x3fe4088496a81499, 0x3fd6008922f642f8,
                    0x3fe7b453c0e02383, 0x3fe6fc74308cb55c, 0x3fe58b75f130f218, 0x3fe744b202c93d8b,
                    0x3fe875c854f6416d, 0x3fe7b4a01acc9aa6, 0x3fb3a67fa4f2d2a6, 0x3fad7c304f578472,
                    0x3f9f57dbb973d910, 0x3f9acb8e1b58f64b, 0x3fa5f701ef2883be, 0x3fb2f3198cfb8611,
                ]),
            ],
        ],
    },
    Golden {
        m: 113,
        levels: &[16, 32, 64],
        qoi: [0x9ced1ad82ad08ad7, 0x4f47d11a646fe526, 0x49d41ea7c615fe64],
        evals: &[
            [
                (0xc08f68fb526bf68a, [
                    0x3fb3af65675d4d38, 0x3fb0b34e5445bde3, 0x3fac0e9b26671d36, 0x3faef925ea549b10,
                    0x3fb33b0a510f21f4, 0x3fb35098ac97ca48, 0x3fcf84fcb5d70c12, 0x3fccac8e7f6d59c4,
                    0x3fca72992bf323c4, 0x3fcd6bab55617c8a, 0x3fcf52292d1c0b79, 0x3fcf01125ed9242e,
                    0x3fdaa63069d882df, 0x3fda8d08f77596e9, 0x3fdac9bdd5599930, 0x3fda617133b3db03,
                    0x3fd9bb920e8d076a, 0x3fda94f2e8a8fabf, 0x3fe34ab127af8fe8, 0x3fe3a9ea38ed66de,
                    0x3fe3a5b490a151f8, 0x3fe2c8dc9ec4dec2, 0x3fe22407da57ce85, 0x3fe356ee7ca84707,
                    0x3fe982a418e7e1fc, 0x3fea03a4b64f9f2a, 0x3fea0e27486d55d9, 0x3fe8bf09d4729bf0,
                    0x3fe7fbf8dde305ed, 0x3fe9926b1f84ec5d, 0x3fbcb586c3bcdf33, 0x3fb865b2f709a18c,
                    0x3fb53e96fb952b11, 0x3fb803636b79263e, 0x3fbb81c3367507ac, 0x3fbc0c9134eee201,
                ]),
                (0xc09e7848a6fa09aa, [
                    0x3fa8ba3801a53bee, 0x3fb0c081e742b89e, 0x3fa0d00e1b114e96, 0x3fa15a79d87c6ffb,
                    0x3fad0f6064a9c0da, 0x3fab8cdda74fe5df, 0x3fc3ec75aaf88e32, 0x3fc17b9e8f1d1ac8,
                    0x3fc2f869bbe76fe4, 0x3fc399266103f7a6, 0x3fc6444138e00327, 0x3fc30b12746b1082,
                    0x3fdbb9c32712342e, 0x3fd782e6ad9ded18, 0x3fd7050ac9b8c845, 0x3fd4b69aa19c036e,
                    0x3fd37d598e64c6fe, 0x3fda63f9ae89046e, 0x3fe6ff470cfca9e1, 0x3fe6b6a2add65304,
                    0x3fe496dc4a380b75, 0x3fe0ee05b54e0a4c, 0x3fe0a45f3d7e9da5, 0x3fe708158bca546f,
                    0x3fe8f21e238c4b22, 0x3fe974801834fc62, 0x3fe8b6f189987e4e, 0x3fe57d5cf2a63c56,
                    0x3fe5979e95422a88, 0x3fe9070df2539077, 0x3fb06521eefaab4a, 0x3fb4b5d8cd962253,
                    0x3fac685898c5a4d8, 0x3faa74e83d65794c, 0x3fb44b05549be156, 0x3fb1bd43adf6bb6c,
                ]),
                (0xc0b7e6de31db929c, [
                    0x3f948d2f6e9c8326, 0x3f966ec3194be12c, 0x3f868b11694ca80e, 0x3f727c4cfac4f059,
                    0x3f974bfe8afcf8ee, 0x3f93405a34ca8711, 0x3fcbca482ae6c724, 0x3fc625aecba4c010,
                    0x3fc000734e91a914, 0x3fc0cd386e272903, 0x3fc55e85cb34a6fe, 0x3fcadcc85c543c93,
                    0x3fd0d7e61fa434d6, 0x3fd1943f6e333a87, 0x3fd34bb3a4b9b49a, 0x3fd621762a57208b,
                    0x3fdbb281ecedc28f, 0x3fd0edc9e67492e2, 0x3fd5ca4d4651a47c, 0x3fd611eff745dc8a,
                    0x3fd5b7e7c9f4fb8d, 0x3fe0becf086aee00, 0x3fe29361be06e47c, 0x3fd5e1b553bcadd5,
                    0x3fe7cba45828c5aa, 0x3fe4a62da0bcb4f2, 0x3fe5334f035914ca, 0x3fe756bade25db55,
                    0x3fe84c7755a06801, 0x3fe6e1bdc498670b, 0x3fb2cf67a90c7c90, 0x3fb0349246c5b48c,
                    0x3f9d33d1c83e332c, 0x3f91c5fe7ea6f7bf, 0x3fae5c49e6e57876, 0x3fb232ed4abdea98,
                ]),
            ],
            [
                (0xc08fa7e43ca084fa, [
                    0x3fb38ef6dbc93570, 0x3fb0a6b92d199318, 0x3fac1c6b94384ba7, 0x3faf3b0490f40f30,
                    0x3fb3154e5ee4506c, 0x3fb34a3bbfff7f1a, 0x3fcf865a80cc7bac, 0x3fcc974a03b1c0a9,
                    0x3fca5cab31d8cd21, 0x3fcdb72888417547, 0x3fcf88dce3a5a254, 0x3fcf100db3320118,
                    0x3fdaaee0e4bdf118, 0x3fda8fffa051c56e, 0x3fdada6c179f2205, 0x3fda77170706e7c0,
                    0x3fd9c7fdd2897884, 0x3fda9b795fc426ac, 0x3fe33d6f9b5e2f1e, 0x3fe39feaf0c8616f,
                    0x3fe392832776b0af, 0x3fe2b0d54e898f93, 0x3fe21f53c308bcf7, 0x3fe346ea9ddad6d1,
                    0x3fe97837ac1c7db9, 0x3fe9f6317552275e, 0x3fea0226e556f379, 0x3fe8ad209eed40bd,
                    0x3fe7fee06d063f74, 0x3fe98577a71f59bd, 0x3fbd2a338e8eb574, 0x3fb8d585a2e08c96,
                    0x3fb5603a4392b8cf, 0x3fb8006c8c93d956, 0x3fbb649c178f250d, 0x3fbca87beaf8f10d,
                ]),
                (0xc09e65e70c0d0464, [
                    0x3fa8979315ed2364, 0x3fb06e598727992d, 0x3fa0c7c94de041e7, 0x3fa1a5410f7d99ba,
                    0x3facd3a34daf682a, 0x3faabb786341f9f4, 0x3fc3c62a9346a737, 0x3fc150ecac57109a,
                    0x3fc308a9ed4c0579, 0x3fc39fdb5fe22ce4, 0x3fc65c8ee26c82be, 0x3fc2eae5bc602d88,
                    0x3fdbb4a76955a94b, 0x3fd7f35b2d4920a2, 0x3fd767d946512830, 0x3fd4b0491268dbab,
                    0x3fd3417fbd54b617, 0x3fda9fe5e6bd41ab, 0x3fe712ef5ece5b5d, 0x3fe6cbf4246b5822,
                    0x3fe4ade7df923ff6, 0x3fe0defbb4678f29, 0x3fe08943ca9128ce, 0x3fe71e71de64ef6b,
                    0x3fe8e707bfba8ad8, 0x3fe97e19ccc1344c, 0x3fe8eaa0774ea66f, 0x3fe56e9963ada12c,
                    0x3fe5664b35c2067c, 0x3fe8fa22b26625f9, 0x3fb0867f17d41e27, 0x3fb4e6bbfc25a6dc,
                    0x3fab1f4abd2f47e1, 0x3faa164b1edbcfc6, 0x3fb47be9e37befd9, 0x3fb1af219591a557,
                ]),
                (0xc0b7b0511aabd4fe, [
                    0x3f964a26e4526ed3, 0x3f9877977b66d4d4, 0x3f881e2e65a240a6, 0x3f73846f404a4288,
                    0x3f99ea50a87d16f3, 0x3f9478f2045ecc50, 0x3fcc427335131699, 0x3fc62a82cce20c20,
                    0x3fbf73f5ea3a9294, 0x3fc126799f06b805, 0x3fc5ad95b2b971af, 0x3fcb938a9169b48e,
                    0x3fd1173043ced13e, 0x3fd1b5f2c3a7c4fa, 0x3fd36a35e9a4cc88, 0x3fd670f371915c9f,
                    0x3fdbcb2896b84af2, 0x3fd12c4906d0f567, 0x3fd5f1f93ae3b515, 0x3fd6078867e04bee,
                    0x3fd5692c7e39c879, 0x3fe16e5da530aa61, 0x3fe2c00f4c53091d, 0x3fd6176e9a8235ee,
                    0x3fe851c92358c44f, 0x3fe49a00ddd21687, 0x3fe56148d9c5b3d2, 0x3fe7a2eb1a4e44c1,
                    0x3fe886e772c9acc0, 0x3fe6fcdb6500fb5a, 0x3fac24c8e853bdcb, 0x3faa42055e10ddb7,
                    0x3f9793b38f1cd7cb, 0x3f86279122e8ed3f, 0x3fab0c9f6d686e3c, 0x3faa7ec98881db30,
                ]),
            ],
            [
                (0xc08fa970863692a4, [
                    0x3fb38705f2785c2e, 0x3fb0a04967eb9218, 0x3fac23dfbdcf751d, 0x3faf4b63c8532d8b,
                    0x3fb30d4f2093e45b, 0x3fb342e29f974fd4, 0x3fcf839275741cf5, 0x3fcc956e7d35c6f1,
                    0x3fca60d8d57768cb, 0x3fcdb43da88f1d7a, 0x3fcf8121d1158ba4, 0x3fcf0de63f79e2f7,
                    0x3fdaacdd58be136b, 0x3fda901175a5f17e, 0x3fdad8cceec91f2c, 0x3fda752481c0eba9,
                    0x3fd9c723b1f56a1f, 0x3fda99228eb2f9e9, 0x3fe33ddc7e65c66f, 0x3fe3a02710348dc0,
                    0x3fe394139284ae15, 0x3fe2b1e51a6c2aa9, 0x3fe2202a6b814e27, 0x3fe3476006606286,
                    0x3fe97819ac37ca73, 0x3fe9f5eb46fd9d2a, 0x3fea02c21d16412e, 0x3fe8adfb9b502f86,
                    0x3fe7ff4b56304bf4, 0x3fe985a50dc99816, 0x3fbd1a2cad7a9fa7, 0x3fb8c85443e4df67,
                    0x3fb5614721a109d9, 0x3fb809896082d0d0, 0x3fbb658030e44523, 0x3fbc99d1f78a294f,
                ]),
                (0xc09e67b86a68ba80, [
                    0x3fa8988b048c249c, 0x3fb0573381e3b012, 0x3fa0ef3d77125e80, 0x3fa1b6e1897364af,
                    0x3facc8ae71f6e55a, 0x3faaaa95f36690e2, 0x3fc3cbe007f44c4c, 0x3fc152a4d5e3df26,
                    0x3fc3031dc8bbc027, 0x3fc39e124d354296, 0x3fc65c6693d5eba6, 0x3fc2f1d778212b48,
                    0x3fdbad86bc06fb16, 0x3fd7e6d669e0c85f, 0x3fd75e2d243717f2, 0x3fd4ae3ddbb51c49,
                    0x3fd3494bdde12452, 0x3fda9811cfabbadb, 0x3fe7123084a88368, 0x3fe6c99064a8b5c5,
                    0x3fe4ab9cd2be4775, 0x3fe0e05db1b2bf5b, 0x3fe08bdc55568444, 0x3fe71d864f2ad257,
                    0x3fe8ea1c84bd40d8, 0x3fe97dbae8b2a09a, 0x3fe8e3d0a5869e2b, 0x3fe56f7ca487298e,
                    0x3fe56b09e651f698, 0x3fe8fc754d1b361d, 0x3fb093cb9613bb02, 0x3fb4de54f9049ba6,
                    0x3fab58c339c31d9a, 0x3faa3742dd80fdbf, 0x3fb47ce42a063c24, 0x3fb1b35bbffee5df,
                ]),
                (0xc0b7a6ed290bd108, [
                    0x3f96edcfcfc96fce, 0x3f98e98954892e0e, 0x3f889b477c6c7ef5, 0x3f74290b42d01034,
                    0x3f9a7c0deef95a73, 0x3f951d8d321db271, 0x3fcc385c961ea843, 0x3fc62cdd708efad6,
                    0x3fbfb1a15974d35c, 0x3fc12bd80926b1b8, 0x3fc5b58f9e1ecf29, 0x3fcb859551455e3d,
                    0x3fd118643b01fe1b, 0x3fd1b41b4e176ce9, 0x3fd369ca52661e0d, 0x3fd673f279c7982c,
                    0x3fdbce4c324f66e7, 0x3fd12da38e2d9ee1, 0x3fd5f135e5721188, 0x3fd60a9341a3ed79,
                    0x3fd5702eb2486a61, 0x3fe162e0e2ef6b11, 0x3fe2c4a1c902fe49, 0x3fd6150310e9c796,
                    0x3fe843ac84a3aa09, 0x3fe4a038c4be2c60, 0x3fe5631d05f09b31, 0x3fe7a7ee5afa4b1c,
                    0x3fe888c382137a72, 0x3fe6f4bea614bb2a, 0x3face0e06868dc02, 0x3faac7f5de2681df,
                    0x3f984c8c6cd0152d, 0x3f8761eaa74e2074, 0x3fab96788a7dce21, 0x3fab478dd447c793,
                ]),
            ],
        ],
    },
];

/// A one-worker pool run of one of the benchmark's Poisson
/// configurations (its hierarchy, ρ and chains per level) on small `N_l`,
/// without load balancing.
struct GoldenRun {
    m: usize,
    levels: &'static [usize],
    rho: &'static [usize],
    chains: &'static [usize],
    samples: &'static [usize],
    /// `(seed, levels_digest)`.
    digests: [(u64, u64); 2],
}

// The m = 8 and m = 113 digests were re-recorded when speculative serves
// were removed: with more than one chain per level they changed a
// one-worker run's poll order. Each is what the code before produced
// with speculation switched off; m = 24 (one chain per level) did not move.
// The m = 113 digests were re-recorded again when a serve stopped running
// the pairing leg for a request that does not read its mate: on three
// levels a level-1 controller's serve legs now lease level 0 without a
// mate, so its level-0 pairing track advances on its own steps only and
// its serves take half the evaluations. The two-level runs (every request
// reads its mate) did not move.
// All six were re-recorded once more when `log κ` moved to sum
// factorisation: the QOIs moved at rounding level and with them every
// run's means, while the trajectories did not (`sequential_golden`'s
// evaluation counts and acceptance rates, and `serve_alloc`'s QOI counts
// and evaluations per level, kept their values).
#[rustfmt::skip]
const GOLDEN_RUNS: [GoldenRun; 3] = [
    GoldenRun { m: 8, levels: &[4, 8], rho: &[4], chains: &[64, 64], samples: &[4000, 1000],
                // both: the code before, speculation off
                digests: [(7, 0x72229949540d99ea), (11, 0x79338ae179a9d05a)] },
    GoldenRun { m: 24, levels: &[8, 16], rho: &[5], chains: &[1, 1], samples: &[400, 100],
                digests: [(7, 0x1745db5094b9b24b), (11, 0x5a0517048071661e)] },
    GoldenRun { m: 113, levels: &[16, 32, 64], rho: &[10, 4], chains: &[2, 2, 2],
                samples: &[100, 20, 4],
                // both: serve legs lease without a mate
                digests: [(7, 0x5fa538d1d6cdfff9), (11, 0x8e1236624b400ab3)] },
];

#[test]
fn forward_outputs_log_densities_and_qois_are_bit_identical() {
    for golden in &GOLDEN {
        let hierarchy = PoissonHierarchy::new(golden.m, golden.levels.to_vec(), TRUTH_SEED);
        assert_eq!(golden.evals.len(), golden.levels.len());
        for (level, evals) in golden.evals.iter().enumerate() {
            let mut problem = hierarchy.problem(level);
            for (k, (log_density, forward)) in evals.iter().enumerate() {
                let at = format!("m = {}, level {level}, theta {k}", golden.m);
                let theta = theta(golden.m, k);
                let bits: Vec<u64> = problem
                    .model_mut()
                    .forward(&theta)
                    .iter()
                    .map(|x| x.to_bits())
                    .collect();
                assert_eq!(bits, forward, "forward, {at}");
                assert_eq!(
                    problem.log_density(&theta).to_bits(),
                    *log_density,
                    "log_density, {at}"
                );
                assert_eq!(qoi_hash(&problem.qoi(&theta)), golden.qoi[k], "qoi, {at}");
            }
        }
    }
}

#[test]
fn one_worker_pool_digests_are_bit_identical() {
    let pool = Runtime::new(1);
    let off = Tracer::disabled();
    for golden in &GOLDEN_RUNS {
        let m = golden.m;
        let hierarchy = PoissonHierarchy::new(m, golden.levels.to_vec(), TRUTH_SEED);
        let factory = PoissonFactory::new(hierarchy, golden.rho.to_vec());
        for (seed, digest) in golden.digests {
            let mut base = ParallelConfig::new(golden.samples.to_vec(), golden.chains.to_vec());
            base.seed = seed;
            base.load_balancing = false;
            let config = RuntimeConfig {
                base,
                n_workers: 1,
                collector_shards: 1,
            };
            let run = Run::new(&factory, &config, &off, None, None)
                .on(Placement::Pool(&pool))
                .expect("a live run");
            assert_eq!(
                levels_digest(&run.report.levels),
                digest,
                "m = {m}, seed {seed}"
            );
        }
    }
}

#[test]
fn direct_level_one_agrees_with_mg_cg() {
    // the m = 113 level-1 constants were re-recorded when n = 32 moved to
    // the band solve; an MG-CG solve of the same system, to the model's
    // old tolerance, lands within 1e-7 of each direct forward output
    let hierarchy = PoissonHierarchy::new(113, vec![16, 32, 64], TRUTH_SEED);
    let mut problem = hierarchy.problem(1);
    assert_eq!(problem.model().solver_name(), "direct");
    for k in 0..3 {
        let theta = theta(113, k);
        let direct = problem.model_mut().forward(&theta);
        let model = problem.model();
        let kappa = model.kappa_elements(&theta);
        let gmg = build_mg_hierarchy(32, &kappa).expect("n = 32 supports MG");
        let rhs = assemble(model.grid(), &kappa).rhs;
        let opts = SolverOptions {
            rel_tol: 1e-8,
            ..Default::default()
        };
        let solved = cg(gmg.matrix(0), &rhs, None, &gmg, opts);
        assert!(solved.converged, "theta {k}");
        for (i, (&(x, y), d)) in model.observation_points().iter().zip(&direct).enumerate() {
            let mg = model.grid().stencil(x, y).eval(&solved.x);
            let rel = (mg - d).abs() / d.abs();
            assert!(rel <= 1e-7, "theta {k}, point {i}: {rel:e}");
        }
    }
}
