//! The same violations as `bad_lib.rs`, each silenced by an inline
//! `sentinet-allow` with a reason. The lint engine must report nothing.
//! (This file is test data — it is never compiled.)

pub fn suppressed(maybe: Option<u32>, x: f64) -> u32 {
    // sentinet-allow(unwrap-used): fixture exercises suppression
    let a = maybe.unwrap();
    // sentinet-allow(expect-used): fixture exercises suppression
    let b = maybe.expect("present");
    // sentinet-allow(float-eq): fixture exercises suppression
    if x == 1.0 {
        // sentinet-allow(panic-used): fixture exercises suppression
        panic!("boom");
    }
    // sentinet-allow(dbg-used): fixture exercises suppression
    dbg!(a);
    // sentinet-allow(unseeded-rng): fixture exercises suppression
    let _rng = thread_rng();
    // sentinet-allow(thread-spawn): fixture exercises suppression
    std::thread::spawn(|| {});
    a + b
}

pub fn hot(buf: &mut Vec<f64>, other: &[f64]) {
    // sentinet-allow(hot-path-alloc): fixture exercises suppression
    *buf = other.to_vec();
}

pub fn crashy(payload: Box<dyn std::any::Any + Send>) {
    // sentinet-allow(unbounded-channel): fixture exercises suppression
    let (_tx, _rx) = unbounded::<u32>();
    // sentinet-allow(resume-unwind): fixture exercises suppression
    std::panic::resume_unwind(payload);
}

// sentinet-allow(net-outside-gateway): fixture exercises suppression
pub fn leaky_socket(stream: &mut std::net::TcpStream, buf: &mut [u8]) {
    // sentinet-allow(socket-read-timeout): fixture exercises suppression
    let _ = stream.read(buf);
}

pub fn sneaky_write(dir: &std::path::Path) {
    // sentinet-allow(io-outside-vfs): fixture exercises suppression
    let _ = std::fs::write(dir.join("out"), b"x");
}

pub fn leaky_ack(replies: &mut Vec<Message>, sensor: u16, seq: u64) {
    // sentinet-allow(ack-ordering): fixture exercises suppression
    replies.push(Message::AckUpTo { sensor, seq });
}

pub fn rogue_reassign(map: &mut PartitionMap) {
    // sentinet-allow(partition-map-mutation): fixture exercises suppression
    map.commit_owner(0, 2);
}

pub fn chatty_codec(out: &mut String, n: u64) {
    // sentinet-allow(codec-alloc): fixture exercises suppression
    out.push_str(&format!("n {n}\n"));
}

// sentinet-allow(stale-suppression): fixture exercises suppression
// sentinet-allow(float-eq): intentionally stale for the fixture
pub fn formerly_fuzzy(x: f64) -> f64 {
    x.max(0.0)
}
