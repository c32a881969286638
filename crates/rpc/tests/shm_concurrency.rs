//! Concurrency battery for the shared-memory segment.
//!
//! The shm data path is the one place where multiple client threads and
//! the manager's event loop touch the same bytes: writers allocate a
//! region, fill it and hand (offset, len) across a channel; the reader
//! consumes the region and frees it. The segment must never produce torn
//! reads, never hand two writers overlapping regions, and must account
//! every region through the full alloc → write → read → free lifecycle.

use std::thread;

use bf_rpc::{ShmError, ShmSegment};
use crossbeam::channel::bounded;

const WRITERS: usize = 4;
const ROUNDS: usize = 64;
const REGION: u64 = 4096;

/// Each message is a region filled with one distinguishing byte, so a
/// torn read (two writers in one region, or a read racing a write)
/// surfaces as a mixed-byte payload.
#[test]
fn parallel_writers_and_a_reader_never_tear_or_leak() {
    let shm = ShmSegment::new((WRITERS as u64 + 1) * ROUNDS as u64 * REGION);
    let (tx, rx) = bounded::<(u64, u64, u8)>(WRITERS * 4);

    let reader = {
        let shm = shm.clone();
        thread::spawn(move || {
            let mut seen = vec![0usize; WRITERS];
            for (offset, len, id) in rx.iter() {
                let bytes = shm.read(offset, len).expect("read live region");
                assert!(
                    bytes.iter().all(|&b| b == id),
                    "torn read at offset {offset}: region written by {id} holds foreign bytes"
                );
                shm.free(offset).expect("free once");
                // No "a second free is BadRegion" check here: regions are
                // named by bare offset, so a writer may already have
                // re-allocated this one and a second free would release
                // its live region. "Freed means gone" is asserted
                // single-threaded in
                // `lifecycle_errors_are_reported_not_swallowed`; telling a
                // stale handle from a live one needs the generation-tagged
                // region ids of ROADMAP item 4, which are not part of
                // this change.
                seen[id as usize] += 1;
            }
            seen
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|id| {
            let shm = shm.clone();
            let tx = tx.clone();
            thread::spawn(move || {
                for round in 0..ROUNDS {
                    // Vary the size so first-fit recycling shuffles offsets
                    // between writers across rounds.
                    let len = REGION - (round as u64 % 7) * 16;
                    let offset = shm.alloc(len).expect("capacity is provisioned");
                    shm.write(offset, &vec![id as u8; len as usize])
                        .expect("write own region");
                    tx.send((offset, len, id as u8)).expect("reader alive");
                }
            })
        })
        .collect();
    drop(tx);

    for w in writers {
        w.join().expect("writer");
    }
    let seen = reader.join().expect("reader");
    assert_eq!(seen, vec![ROUNDS; WRITERS], "every region was consumed");
    assert_eq!(shm.used(), 0, "full lifecycle: everything freed");
    // The allocator coalesced back to one region: a capacity-sized alloc
    // succeeds again.
    let all = shm.alloc(shm.capacity()).expect("segment fully recycled");
    shm.free(all).expect("free");
}

/// Two writers hammering alloc/free concurrently must never be handed
/// overlapping regions.
#[test]
fn concurrent_allocations_never_overlap() {
    let shm = ShmSegment::new(64 * REGION);
    let handles: Vec<_> = (0..2)
        .map(|id| {
            let shm = shm.clone();
            thread::spawn(move || {
                let mut held = Vec::new();
                for _ in 0..128u64 {
                    let offset = shm.alloc(REGION).expect("half the segment each");
                    shm.write(offset, &vec![id as u8; REGION as usize])
                        .expect("write");
                    held.push(offset);
                    // Keep at most 16 live regions (32 across both writers,
                    // against 64 provisioned), recycling the oldest.
                    if held.len() >= 16 {
                        let freed = held.remove(0);
                        let bytes = shm.read(freed, REGION).expect("still mine");
                        assert!(
                            bytes.iter().all(|&b| b == id as u8),
                            "writer {id}'s region at {freed} was clobbered"
                        );
                        shm.free(freed).expect("free");
                    }
                }
                for offset in held {
                    let bytes = shm.read(offset, REGION).expect("still mine");
                    assert!(bytes.iter().all(|&b| b == id as u8));
                    shm.free(offset).expect("free");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("writer");
    }
    assert_eq!(shm.used(), 0);
}

#[test]
fn lifecycle_errors_are_reported_not_swallowed() {
    let shm = ShmSegment::new(2 * REGION);
    let a = shm.alloc(REGION).expect("alloc");
    // Double free.
    shm.free(a).expect("first free");
    assert_eq!(shm.free(a), Err(ShmError::BadRegion(a)));
    // Read/write through a stale offset.
    assert!(shm.read(a, 1).is_err());
    assert!(shm.write(a, &[1]).is_err());
    // Out-of-bounds access on a live region.
    let b = shm.alloc(REGION).expect("alloc");
    assert!(matches!(
        shm.write(b, &vec![0; REGION as usize + 1]),
        Err(ShmError::OutOfBounds { .. })
    ));
    // Exhaustion names the largest free region instead of panicking.
    assert!(matches!(
        shm.alloc(shm.capacity()),
        Err(ShmError::OutOfSpace { .. })
    ));
    shm.free(b).expect("free");
}
