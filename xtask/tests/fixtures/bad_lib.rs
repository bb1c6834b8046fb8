//! Seeded-bad fixture: with a lib-root context registering `hot` as a
//! hot-path function, every one of the nineteen lints fires exactly
//! once. (This file is test data — it is never compiled.)

pub fn violations(maybe: Option<u32>, x: f64) -> u32 {
    let a = maybe.unwrap();
    let b = maybe.expect("present");
    if x == 1.0 {
        panic!("boom");
    }
    dbg!(a);
    let _rng = thread_rng();
    std::thread::spawn(|| {});
    a + b
}

pub fn crashy(payload: Box<dyn std::any::Any + Send>) {
    let (_tx, _rx) = unbounded::<u32>();
    std::panic::resume_unwind(payload);
}

pub fn hot(buf: &mut Vec<f64>, other: &[f64]) {
    *buf = other.to_vec();
}

pub fn leaky_socket(stream: &mut std::net::TcpStream, buf: &mut [u8]) {
    let _ = stream.read(buf);
}

pub fn sneaky_write(dir: &std::path::Path) {
    let _ = std::fs::write(dir.join("out"), b"x");
}

pub fn leaky_ack(replies: &mut Vec<Message>, sensor: u16, seq: u64) {
    replies.push(Message::AckUpTo { sensor, seq });
}

pub fn rogue_reassign(map: &mut PartitionMap) {
    map.commit_owner(0, 2);
}

pub fn chatty_codec(out: &mut String, n: u64) {
    out.push_str(&format!("n {n}\n"));
}

pub fn planted(config: &mut GatewayConfig) {
    config.mutant = Some(Mutant::EagerAck);
}

// sentinet-allow(float-eq): stale — the comparison this excused was rewritten
pub fn formerly_fuzzy(x: f64) -> f64 {
    x.max(0.0)
}
