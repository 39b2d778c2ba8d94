//! Branch-light bulk byte scanning for the tokenizer.
//!
//! The boundary scanner of [`crate::push::PushTokenizer`] (tokenizing and
//! fast-forwarding alike) spends almost all of its
//! time finding the *next structural byte*: the `<` that ends a text
//! run (or, tokenizing, the `&` that says the run needs decoding), the
//! `>`/quote that delimits a tag, the `]` or `-` that may
//! close a CDATA section or comment. These helpers replace per-byte
//! state stepping with word-at-a-time SWAR scans (the classic
//! `memchr` zero-byte trick), with no external dependencies and no
//! `unsafe`: eight (or four) bytes are loaded per iteration via
//! `usize::from_ne_bytes`, and the first match is read off the hit
//! word's lane mask, not found again byte by byte.

/// Bytes per machine word.
const W: usize = usize::BITS as usize / 8;
/// `0x0101…01`: one in every byte lane.
const LO: usize = usize::MAX / 255;
/// `0x8080…80`: the high bit of every byte lane.
const HI: usize = LO * 0x80;

/// Broadcasts `b` into every byte lane of a word.
#[inline]
fn splat(b: u8) -> usize {
    LO * b as usize
}

/// The byte lanes of `x` that are zero, as their high bits (Mycroft's
/// trick). A borrow can flag a lane *above* a zero lane that is not zero
/// itself, never one below, so the lowest flagged lane is exact.
#[inline]
fn zero_lanes(x: usize) -> usize {
    x.wrapping_sub(LO) & !x & HI
}

/// Loads the word starting at `hay[i]` (caller guarantees `i + W <=
/// hay.len()`).
#[inline]
fn load(hay: &[u8], i: usize) -> usize {
    usize::from_ne_bytes(hay[i..i + W].try_into().expect("W bytes"))
}

/// Index of the first byte of `hay` that `hit` accepts. Whole words are
/// tested with `lanes`, which flags the lanes `hit` accepts: on
/// little-endian the first flagged word's lowest lane is the answer; on
/// big-endian, where that lane is the highest address, the word is
/// walked byte by byte, as is the tail after the last whole word.
#[inline]
fn first_hit(
    hay: &[u8],
    lanes: impl Fn(usize) -> usize,
    hit: impl Fn(u8) -> bool,
) -> Option<usize> {
    let mut i = 0;
    while i + W <= hay.len() {
        let m = lanes(load(hay, i));
        if m != 0 {
            if cfg!(target_endian = "little") {
                return Some(i + (m.trailing_zeros() / 8) as usize);
            }
            break;
        }
        i += W;
    }
    hay[i..].iter().position(|&b| hit(b)).map(|p| i + p)
}

/// Index of the first occurrence of `needle` in `hay`.
#[inline]
pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    let n = splat(needle);
    first_hit(hay, |x| zero_lanes(x ^ n), |b| b == needle)
}

/// Index of the first occurrence of `a` or `b` in `hay`.
#[inline]
pub fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
    let (na, nb) = (splat(a), splat(b));
    first_hit(
        hay,
        |x| zero_lanes(x ^ na) | zero_lanes(x ^ nb),
        |x| x == a || x == b,
    )
}

/// Index of the first occurrence of `a`, `b` or `c` in `hay`.
#[inline]
pub fn memchr3(a: u8, b: u8, c: u8, hay: &[u8]) -> Option<usize> {
    let (na, nb, nc) = (splat(a), splat(b), splat(c));
    first_hit(
        hay,
        |x| zero_lanes(x ^ na) | zero_lanes(x ^ nb) | zero_lanes(x ^ nc),
        |x| x == a || x == b || x == c,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementations to differentiate against.
    fn naive1(n: u8, h: &[u8]) -> Option<usize> {
        h.iter().position(|&b| b == n)
    }

    #[test]
    fn memchr_matches_naive_on_all_offsets() {
        let mut hay = vec![b'a'; 3 * W + 5];
        for pos in 0..hay.len() {
            hay[pos] = b'<';
            for start in 0..hay.len() {
                assert_eq!(
                    memchr(b'<', &hay[start..]),
                    naive1(b'<', &hay[start..]),
                    "pos {pos} start {start}"
                );
            }
            hay[pos] = b'a';
        }
        assert_eq!(memchr(b'<', &hay), None);
        assert_eq!(memchr(b'<', &[]), None);
    }

    #[test]
    fn memchr2_matches_naive_on_all_offsets() {
        let mut hay = vec![b'a'; 3 * W + 5];
        for pos in 0..hay.len() {
            for needle in [b'<', b'&'] {
                hay[pos] = needle;
                for start in 0..hay.len() {
                    assert_eq!(
                        memchr2(b'<', b'&', &hay[start..]),
                        naive1(needle, &hay[start..]),
                        "pos {pos} start {start}"
                    );
                }
            }
            hay[pos] = b'a';
        }
        assert_eq!(memchr2(b'<', b'&', &hay), None);
        assert_eq!(memchr2(b'<', b'&', &[]), None);
        assert_eq!(memchr2(b'<', b'&', b"xxxxxxxxxx&xx<"), Some(10));
    }

    #[test]
    fn memchr3_matches_naive_on_all_offsets() {
        let mut hay = vec![b'a'; 3 * W + 5];
        for pos in 0..hay.len() {
            for needle in [b'>', b'"', b'\''] {
                hay[pos] = needle;
                for start in 0..hay.len() {
                    assert_eq!(
                        memchr3(b'>', b'"', b'\'', &hay[start..]),
                        naive1(needle, &hay[start..]),
                        "pos {pos} start {start}"
                    );
                }
            }
            hay[pos] = b'a';
        }
        assert_eq!(memchr3(b'>', b'"', b'\'', &hay), None);
        assert_eq!(memchr3(b'a', b'b', b'c', b""), None);
        let hay = b"xxxxxxxxxxxxxxxxxxxxxxxxx\"yyyyyyyyyyyy'zzzzzzzzzz>";
        assert_eq!(memchr3(b'>', b'"', b'\'', hay), Some(25));
        assert_eq!(memchr3(b'>', b'%', b'!', hay), Some(hay.len() - 1));
    }

    /// The answer is the hit word's lowest flagged lane, and a borrow out
    /// of a zero lane can flag the lanes above it: bytes that are, or
    /// that XOR with a needle to, `0x00`, `0x01` or `0x80` after the hit
    /// are where a wrong lane would be read. Each filler byte fills the
    /// haystack, one needle byte goes at every position, and every
    /// suffix must agree with the naive scan.
    #[test]
    fn the_lowest_lane_is_exact_when_false_hits_follow() {
        let (a, b, c) = (b'<', b'&', b'>');
        let mut fillers = vec![0x00, 0x01, 0x80, 0x81, 0xff];
        for needle in [a, b, c] {
            fillers.extend([needle ^ 0x01, needle ^ 0x80, needle.wrapping_add(1)]);
        }
        for filler in fillers.into_iter().filter(|f| ![a, b, c].contains(f)) {
            let mut hay = [filler; 3 * W + 5];
            for pos in 0..hay.len() {
                for needle in [a, b, c] {
                    hay[pos] = needle;
                    for start in 0..hay.len() {
                        let (h, want) = (&hay[start..], naive1(needle, &hay[start..]));
                        let what = format!(
                            "filler {filler:#04x} needle {needle:#04x} pos {pos} start {start}"
                        );
                        if needle == a {
                            assert_eq!(memchr(a, h), want, "{what}");
                        }
                        if needle != c {
                            assert_eq!(memchr2(a, b, h), want, "{what}");
                        }
                        assert_eq!(memchr3(a, b, c, h), want, "{what}");
                    }
                }
                hay[pos] = filler;
            }
        }
    }
}
