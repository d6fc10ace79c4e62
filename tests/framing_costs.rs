//! Cross-crate integration: a server's write-ahead log frames and
//! checksums a record only when a crash can see it.
//!
//! The log keeps the records it appends as values and builds its byte
//! image — frame headers, CRCs and copies of the contents — at a crash or
//! a recovery scan, the first moments anything reads those bytes. So a
//! healthy run frames nothing, and a crash frames exactly the image the
//! log says it holds.

use weighted_voting::prelude::*;
use weighted_voting::storage::Wal;

/// More events than any run here needs: a run this long never went quiet.
const QUIET: u64 = 1_000_000;

/// `sim-write`'s shape: three majority servers with group commit, 25 ms
/// from one client.
fn cluster() -> Harness {
    let mut b = HarnessBuilder::new()
        .seed(5)
        .quorum(QuorumSpec::majority(3))
        .group_commit(SimDuration::from_millis(2));
    for _ in 0..3 {
        b = b.site(SiteSpec::server(1));
    }
    let link = LatencyModel::Constant(SimDuration::from_millis(25));
    b.client()
        .net(NetConfig::uniform(4, link))
        .build()
        .expect("legal")
}

fn wal(h: &Harness, site: u16) -> &Wal {
    h.server_at(SiteId(site))
        .expect("a server")
        .container()
        .wal()
}

#[test]
fn a_healthy_run_frames_nothing_and_a_crash_frames_the_whole_image() {
    let mut h = cluster();
    let suite = h.suite_id();
    for i in 0..16u8 {
        h.write(suite, vec![i; 1024]).expect("write");
    }
    h.run_until_quiet(QUIET);
    for site in 0..3 {
        assert_eq!(wal(&h, site).framed_bytes(), 0, "site {site}");
    }
    let image = wal(&h, 0).image_bytes();
    assert!(image > 16 * 1024, "the log holds the values: {image} bytes");

    h.inject(Fault::Crash(SiteId(0)));
    assert_eq!(wal(&h, 0).framed_bytes(), image as u64);
    assert_eq!(wal(&h, 0).image_bytes(), image, "all of it was durable");
    // The recovery scan reads the image the crash built; the other
    // servers still have framed nothing.
    h.inject(Fault::Recover(SiteId(0)));
    h.run_until_quiet(QUIET);
    assert_eq!(wal(&h, 0).framed_bytes(), image as u64);
    for site in 1..3 {
        assert_eq!(wal(&h, site).framed_bytes(), 0, "site {site}");
    }
}
