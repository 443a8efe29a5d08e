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

use uq_fem::problem::constants::TRUTH_SEED;
use uq_fem::problem::PoissonFactory;
use uq_fem::PoissonHierarchy;
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
        qoi: [0x38b0c9403797b53f, 0x7dc0946268b21c95, 0x73c4baa6ae5e6aab],
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
        qoi: [0xccf64df38c6e96b9, 0xfde66ae20d5998cc, 0x951ca55659726f11],
        evals: &[
            [
                (0xc08db8a67994893e, [
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
                (0xc09e6f7695435438, [
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
                (0xc0b7daf29bedea70, [
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
                (0xc08e0b647c877a3e, [
                    0x3fb10498e5824bbe, 0x3fade761b3f60374, 0x3fabd628049b5770, 0x3fb0014c3945b4fc,
                    0x3fb2c5256c9a8320, 0x3fb0acd085341fb2, 0x3fcf03a8b1827ec0, 0x3fccff22bb5057b5,
                    0x3fcb3efc65db1774, 0x3fccf747b6aae434, 0x3fcf67d2bae57b70, 0x3fceba95b93c9378,
                    0x3fdaf8033210c24c, 0x3fdac1305fb44930, 0x3fda8c0ef26f044c, 0x3fd9fd73aca65b3e,
                    0x3fd9a7efd65d592d, 0x3fdaedbe1a342b34, 0x3fe2f904a0ca1b4e, 0x3fe367c875c6d082,
                    0x3fe3c89340186de2, 0x3fe2e297d40d1a0c, 0x3fe21082ab6b53e2, 0x3fe304df97d848a5,
                    0x3fe9caa41ad4ea70, 0x3fea39cf9e5876e8, 0x3fea0cb69b1309c2, 0x3fe8e6626f4cb0aa,
                    0x3fe7efa8e7c9c5fd, 0x3fe9deea23db8349, 0x3fb9e01ebe12ad06, 0x3fb701dac02b1e12,
                    0x3fb55901789747cb, 0x3fb8342896eba20e, 0x3fbc18f46207161a, 0x3fb969db43c02657,
                ]),
                (0xc09d84c7e2a04234, [
                    0x3fa591b832712bc6, 0x3fa60cb72857dc06, 0x3fa6733c9ca96027, 0x3fb0310659161232,
                    0x3fafae52ba24c11c, 0x3fa5bdab05e30959, 0x3fc2d0d07ded6cec, 0x3fc1a0a11551c5d7,
                    0x3fc2a332875148fe, 0x3fc71697172eac7a, 0x3fc707f346be6b76, 0x3fc28748c3939df1,
                    0x3fd9da9d1e6726da, 0x3fd8123042529317, 0x3fd5f65ad7726f62, 0x3fd443e1b1347e88,
                    0x3fd44ac0634a1171, 0x3fd97ef655a1b6bc, 0x3fe6ccc2c48861bd, 0x3fe6cef273c8f346,
                    0x3fe5455751287f87, 0x3fe151b782c0e44d, 0x3fe0d4a285c5b4b1, 0x3fe6d3e6e91248b0,
                    0x3fe98ca781cf6f33, 0x3fe9551672be6772, 0x3fe8ac24e0b98746, 0x3fe648e247f47d24,
                    0x3fe683780a731b0b, 0x3fe981a52f9e02a3, 0x3fafc6b8cbb18147, 0x3fafb6c3d2a22d28,
                    0x3fb0a6bdf29b173e, 0x3fb70f17b3d81678, 0x3fb69f5ec3594482, 0x3fafcdd796689721,
                ]),
                (0xc0b75459520e1e1d, [
                    0x3faa87bdb1e55d36, 0x3fa30f422ade47d4, 0x3f93db690513cdd8, 0x3f91aa91fac4b882,
                    0x3f9a1f1de691c048, 0x3fa96a932693e76d, 0x3fc73496b4ed0d70, 0x3fc5109d3d595e7e,
                    0x3fbdb641d262da6c, 0x3fb83b15827ac352, 0x3fc462c58074822d, 0x3fc6f7fab8c42382,
                    0x3fd1a9d211b389aa, 0x3fd23393cc7c973d, 0x3fd30b390b522e60, 0x3fd6d8c54f07b997,
                    0x3fdd20452b5fcb3b, 0x3fd1ba01d5bb455f, 0x3fd62e5b4ed7cd7a, 0x3fd5c60ab396bde1,
                    0x3fd743232f448134, 0x3fe05cfe98bf61c0, 0x3fe4088496a814a8, 0x3fd6008922f64308,
                    0x3fe7b453c0e0238a, 0x3fe6fc74308cb55f, 0x3fe58b75f130f21b, 0x3fe744b202c93d96,
                    0x3fe875c854f64178, 0x3fe7b4a01acc9aac, 0x3fb3a67fa4f2d2b4, 0x3fad7c304f578486,
                    0x3f9f57dbb973d924, 0x3f9acb8e1b58f662, 0x3fa5f701ef2883d2, 0x3fb2f3198cfb861e,
                ]),
            ],
        ],
    },
    Golden {
        m: 113,
        levels: &[16, 32, 64],
        qoi: [0x48a6b378c49329aa, 0x5c4ddf64531d76e0, 0x628ea1cf811c106f],
        evals: &[
            [
                (0xc08f68fb526bf7fa, [
                    0x3fb3af65675d4d32, 0x3fb0b34e5445bddc, 0x3fac0e9b26671d2f, 0x3faef925ea549b0e,
                    0x3fb33b0a510f21f5, 0x3fb35098ac97ca41, 0x3fcf84fcb5d70c08, 0x3fccac8e7f6d59ba,
                    0x3fca72992bf323be, 0x3fcd6bab55617c88, 0x3fcf52292d1c0b77, 0x3fcf01125ed92424,
                    0x3fdaa63069d882d8, 0x3fda8d08f77596e3, 0x3fdac9bdd559992c, 0x3fda617133b3db02,
                    0x3fd9bb920e8d076c, 0x3fda94f2e8a8fab8, 0x3fe34ab127af8fe4, 0x3fe3a9ea38ed66da,
                    0x3fe3a5b490a151f5, 0x3fe2c8dc9ec4dec1, 0x3fe22407da57ce85, 0x3fe356ee7ca84704,
                    0x3fe982a418e7e1f6, 0x3fea03a4b64f9f24, 0x3fea0e27486d55d7, 0x3fe8bf09d4729bf0,
                    0x3fe7fbf8dde305ef, 0x3fe9926b1f84ec57, 0x3fbcb586c3bcdf29, 0x3fb865b2f709a182,
                    0x3fb53e96fb952b0a, 0x3fb803636b79263c, 0x3fbb81c3367507ad, 0x3fbc0c9134eee1f6,
                ]),
                (0xc09e7848a6fa0a4d, [
                    0x3fa8ba3801a53bf0, 0x3fb0c081e742b8a0, 0x3fa0d00e1b114e9a, 0x3fa15a79d87c6ffe,
                    0x3fad0f6064a9c0da, 0x3fab8cdda74fe5e1, 0x3fc3ec75aaf88e35, 0x3fc17b9e8f1d1aca,
                    0x3fc2f869bbe76fe9, 0x3fc399266103f7a8, 0x3fc6444138e00329, 0x3fc30b12746b1085,
                    0x3fdbb9c32712343b, 0x3fd782e6ad9ded19, 0x3fd7050ac9b8c84a, 0x3fd4b69aa19c0374,
                    0x3fd37d598e64c6fc, 0x3fda63f9ae890479, 0x3fe6ff470cfca9e7, 0x3fe6b6a2add6530c,
                    0x3fe496dc4a380b7b, 0x3fe0ee05b54e0a4f, 0x3fe0a45f3d7e9da9, 0x3fe708158bca5476,
                    0x3fe8f21e238c4b2d, 0x3fe974801834fc6c, 0x3fe8b6f189987e53, 0x3fe57d5cf2a63c5b,
                    0x3fe5979e95422a8a, 0x3fe9070df2539082, 0x3fb06521eefaab4c, 0x3fb4b5d8cd962256,
                    0x3fac685898c5a4de, 0x3faa74e83d657951, 0x3fb44b05549be156, 0x3fb1bd43adf6bb6d,
                ]),
                (0xc0b7e6de31db92e2, [
                    0x3f948d2f6e9c832d, 0x3f966ec3194be138, 0x3f868b11694ca818, 0x3f727c4cfac4f062,
                    0x3f974bfe8afcf8f2, 0x3f93405a34ca8718, 0x3fcbca482ae6c730, 0x3fc625aecba4c01a,
                    0x3fc000734e91a91d, 0x3fc0cd386e27290d, 0x3fc55e85cb34a707, 0x3fcadcc85c543c9e,
                    0x3fd0d7e61fa434dd, 0x3fd1943f6e333a8e, 0x3fd34bb3a4b9b4a4, 0x3fd621762a57209c,
                    0x3fdbb281ecedc2aa, 0x3fd0edc9e67492e8, 0x3fd5ca4d4651a485, 0x3fd611eff745dc91,
                    0x3fd5b7e7c9f4fb96, 0x3fe0becf086aee0c, 0x3fe29361be06e48f, 0x3fd5e1b553bcaddd,
                    0x3fe7cba45828c5ac, 0x3fe4a62da0bcb4f6, 0x3fe5334f035914d0, 0x3fe756bade25db62,
                    0x3fe84c7755a0680f, 0x3fe6e1bdc498670e, 0x3fb2cf67a90c7c99, 0x3fb0349246c5b494,
                    0x3f9d33d1c83e333b, 0x3f91c5fe7ea6f7c9, 0x3fae5c49e6e57883, 0x3fb232ed4abdeaa0,
                ]),
            ],
            [
                (0xc08fa7e468bd0be8, [
                    0x3fb38ef6e1a4b219, 0x3fb0a6b92e2574d9, 0x3fac1c6b924d2e6d, 0x3faf3b048a339cbe,
                    0x3fb3154e62c4f739, 0x3fb34a3bc541408b, 0x3fcf865a828fc669, 0x3fcc974a001cba33,
                    0x3fca5cab2ece0ae2, 0x3fcdb728838afa6b, 0x3fcf88dce069713f, 0x3fcf100db2ebc0a1,
                    0x3fdaaee0e1a11b4e, 0x3fda8fff9bea143f, 0x3fdada6c11d4b779, 0x3fda7717016d928f,
                    0x3fd9c7fdcd10cd06, 0x3fda9b795c5e3290, 0x3fe33d6f9740ab49, 0x3fe39feaeace0845,
                    0x3fe3928321df78d4, 0x3fe2b0d549b1b2b5, 0x3fe21f53bed77a0f, 0x3fe346ea99b2b749,
                    0x3fe97837a7adce84, 0x3fe9f6316fdd1275, 0x3fea0226e070b20e, 0x3fe8ad209ab00afb,
                    0x3fe7fee06b5d9358, 0x3fe98577a256970f, 0x3fbd2a3398c25fa3, 0x3fb8d585a5274d13,
                    0x3fb5603a4430c652, 0x3fb8006c898e1df8, 0x3fbb649c185aa3c1, 0x3fbca87bf2058e81,
                ]),
                (0xc09e65e70e6aa62c, [
                    0x3fa8979314609b66, 0x3fb06e5988a4950c, 0x3fa0c7c94ad274ef, 0x3fa1a5410ef50f79,
                    0x3facd3a34c9ff905, 0x3faabb786270a358, 0x3fc3c62a94353df5, 0x3fc150ecaddf005a,
                    0x3fc308a9ead23904, 0x3fc39fdb5e1cc5aa, 0x3fc65c8ee008ef52, 0x3fc2eae5bd8f9950,
                    0x3fdbb4a768f821fc, 0x3fd7f35b2e960e13, 0x3fd767d945a154fc, 0x3fd4b04911955d72,
                    0x3fd3417fbc18007c, 0x3fda9fe5e5fca7d3, 0x3fe712ef5e24a206, 0x3fe6cbf423ef5723,
                    0x3fe4ade7df295808, 0x3fe0defbb3eaeae0, 0x3fe08943ca2c99be, 0x3fe71e71ddd10870,
                    0x3fe8e707bf4ce5ea, 0x3fe97e19cc7588d7, 0x3fe8eaa076f6698f, 0x3fe56e996364fc1a,
                    0x3fe5664b35745bdb, 0x3fe8fa22b211b426, 0x3fb0867f17003425, 0x3fb4e6bbfe361288,
                    0x3fab1f4ab9f354bc, 0x3faa164b1d30895e, 0x3fb47be9e21d43e9, 0x3fb1af21958b9a17,
                ]),
                (0xc0b7b05119bd76a6, [
                    0x3f964a26e738e3b8, 0x3f98779779af8111, 0x3f881e2e6b3cb33d, 0x3f73846f440332c0,
                    0x3f99ea50a69df498, 0x3f9478f204c4bcc8, 0x3fcc427337bfb710, 0x3fc62a82cc5bcef9,
                    0x3fbf73f5e5084e49, 0x3fc126799ac3aeef, 0x3fc5ad95abd682c3, 0x3fcb938a9373fc41,
                    0x3fd1173045714431, 0x3fd1b5f2c490edec, 0x3fd36a35ea8803f9, 0x3fd670f371546238,
                    0x3fdbcb2895abf4de, 0x3fd12c4908b23d52, 0x3fd5f1f93be8e46f, 0x3fd6078867a91a54,
                    0x3fd5692c7d05d099, 0x3fe16e5da5387d33, 0x3fe2c00f4c248afc, 0x3fd6176e9bd17030,
                    0x3fe851c923bd6196, 0x3fe49a00de52ed00, 0x3fe56148d98e7eb9, 0x3fe7a2eb1a5abce2,
                    0x3fe886e772fa87d3, 0x3fe6fcdb65c7d058, 0x3fac24c8eaf54a77, 0x3faa42055c40b3c3,
                    0x3f9793b38e664d90, 0x3f8627911d387bbd, 0x3fab0c9f65cc41b7, 0x3faa7ec98809c42b,
                ]),
            ],
            [
                (0xc08fa97086369348, [
                    0x3fb38705f2785c47, 0x3fb0a04967eb922a, 0x3fac23dfbdcf752b, 0x3faf4b63c8532d9e,
                    0x3fb30d4f2093e466, 0x3fb342e29f974feb, 0x3fcf839275741d19, 0x3fcc956e7d35c712,
                    0x3fca60d8d57768df, 0x3fcdb43da88f1d91, 0x3fcf8121d1158bb7, 0x3fcf0de63f79e31a,
                    0x3fdaacdd58be1384, 0x3fda901175a5f192, 0x3fdad8cceec91f43, 0x3fda752481c0ebb8,
                    0x3fd9c723b1f56a23, 0x3fda99228eb2f9fe, 0x3fe33ddc7e65c67f, 0x3fe3a02710348dca,
                    0x3fe394139284ae1e, 0x3fe2b1e51a6c2aaa, 0x3fe2202a6b814e29, 0x3fe3476006606295,
                    0x3fe97819ac37ca7c, 0x3fe9f5eb46fd9d30, 0x3fea02c21d164136, 0x3fe8adfb9b502f82,
                    0x3fe7ff4b56304bf0, 0x3fe985a50dc9981d, 0x3fbd1a2cad7a9fd0, 0x3fb8c85443e4df83,
                    0x3fb5614721a109e6, 0x3fb809896082d0e1, 0x3fbb658030e44534, 0x3fbc99d1f78a2974,
                ]),
                (0xc09e67b86a68bc0b, [
                    0x3fa8988b048c2479, 0x3fb0573381e3affa, 0x3fa0ef3d77125e5c, 0x3fa1b6e18973648b,
                    0x3facc8ae71f6e50e, 0x3faaaa95f36690b8, 0x3fc3cbe007f44c28, 0x3fc152a4d5e3df09,
                    0x3fc3031dc8bbc004, 0x3fc39e124d35426e, 0x3fc65c6693d5eb6b, 0x3fc2f1d778212b28,
                    0x3fdbad86bc06fae8, 0x3fd7e6d669e0c838, 0x3fd75e2d243717d5, 0x3fd4ae3ddbb51c1d,
                    0x3fd3494bdde12423, 0x3fda9811cfabbaac, 0x3fe7123084a88354, 0x3fe6c99064a8b5b9,
                    0x3fe4ab9cd2be4760, 0x3fe0e05db1b2bf48, 0x3fe08bdc55568420, 0x3fe71d864f2ad243,
                    0x3fe8ea1c84bd40dd, 0x3fe97dbae8b2a083, 0x3fe8e3d0a5869e13, 0x3fe56f7ca487297c,
                    0x3fe56b09e651f675, 0x3fe8fc754d1b3619, 0x3fb093cb9613bae7, 0x3fb4de54f9049b85,
                    0x3fab58c339c31d61, 0x3faa3742dd80fd8e, 0x3fb47ce42a063bec, 0x3fb1b35bbffee5c2,
                ]),
                (0xc0b7a6ed290bd19e, [
                    0x3f96edcfcfc96fb7, 0x3f98e98954892dea, 0x3f889b477c6c7ed8, 0x3f74290b42d01008,
                    0x3f9a7c0deef95a13, 0x3f951d8d321db260, 0x3fcc385c961ea832, 0x3fc62cdd708efabe,
                    0x3fbfb1a15974d324, 0x3fc12bd80926b18f, 0x3fc5b58f9e1eced4, 0x3fcb859551455e2b,
                    0x3fd118643b01fe14, 0x3fd1b41b4e176cd4, 0x3fd369ca52661de3, 0x3fd673f279c797e9,
                    0x3fdbce4c324f667a, 0x3fd12da38e2d9eda, 0x3fd5f135e5721183, 0x3fd60a9341a3ed5d,
                    0x3fd5702eb2486a35, 0x3fe162e0e2ef6ad1, 0x3fe2c4a1c902fdf9, 0x3fd6150310e9c78d,
                    0x3fe843ac84a3aa0e, 0x3fe4a038c4be2c60, 0x3fe5631d05f09b29, 0x3fe7a7ee5afa4acf,
                    0x3fe888c382137a27, 0x3fe6f4bea614bb2a, 0x3face0e06868dbeb, 0x3faac7f5de2681b9,
                    0x3f984c8c6cd0150e, 0x3f8761eaa74e203b, 0x3fab96788a7dcdc0, 0x3fab478dd447c77d,
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
#[rustfmt::skip]
const GOLDEN_RUNS: [GoldenRun; 3] = [
    GoldenRun { m: 8, levels: &[4, 8], rho: &[4], chains: &[64, 64], samples: &[4000, 1000],
                // both: the code before, speculation off
                digests: [(7, 0x3ff9193c42b9f2d0), (11, 0xb4c43436f6aa5f32)] },
    GoldenRun { m: 24, levels: &[8, 16], rho: &[5], chains: &[1, 1], samples: &[400, 100],
                digests: [(7, 0xeb47bc8e0ba204f1), (11, 0xac73898e9a171304)] },
    GoldenRun { m: 113, levels: &[16, 32, 64], rho: &[10, 4], chains: &[2, 2, 2],
                samples: &[100, 20, 4],
                // both: the code before, speculation off
                digests: [(7, 0x833dc1603f41600a), (11, 0xcd19ecd9ec3521c6)] },
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
