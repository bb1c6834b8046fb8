//! Shared by the suites that look inside WAL segments and frame
//! streams (`mod support;`).

/// `(end offset, readings)` of every frame in `bytes` — a frame stream
/// or a WAL segment — read off the envelope's length prefixes and, for
/// the reading count, the payload's tag and batch head (`Data` = 2
/// carries one, `DataBatch` = 7 and the log's run payload = 16 state
/// their count at the same offset, anything else none). Deliberately
/// not the crate's decoder.
pub fn frame_ends(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let payload = &bytes[at + 4..at + 4 + len];
        let readings = match payload[0] {
            2 => 1,
            7 | 16 => usize::from(u16::from_le_bytes([payload[11], payload[12]])),
            _ => 0,
        };
        at += 8 + len;
        out.push((at, readings));
    }
    out
}
