//! A frame header is 20 bytes from a peer that has proved nothing yet:
//! the length it states must not size an allocation. `frame_read` grows
//! its buffer with the bytes that actually arrive, so a header claiming
//! the full 1 GiB cap followed by silence costs one read chunk, not a
//! gigabyte (before PROTOCOL_VERSION 2 both socket readers did
//! `vec![0; len + 8]` straight from the header).
//!
//! A binary of its own because it installs the counting
//! `#[global_allocator]` of `common/counting_alloc.rs`.

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations_in;
use std::io::ErrorKind;
use uq_mlmcmc::wire::{frame_encode, frame_read, FrameFormat};

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
