//! Fixture: a wall-clock seam — the whole file is exempted from D2 in
//! the fixture `lint.toml`, which exercises file-level exemptions (and
//! flags an allow inside an exempt file as stale).

pub fn now_nanos() -> u128 {
    std::time::Instant::now().elapsed().as_nanos() // no D2: file is exempt
}

pub fn redundant_allow() -> u8 {
    9 // lint:allow(D2, reason = "file-level exemption already covers this") — expect A1
}
