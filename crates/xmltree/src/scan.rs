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
//! `usize::from_ne_bytes`, and a candidate word is only re-examined
//! byte-wise when it can actually contain a match.

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

/// True iff any byte lane of `x` is zero (Mycroft's trick).
#[inline]
fn has_zero_byte(x: usize) -> bool {
    x.wrapping_sub(LO) & !x & HI != 0
}

/// Loads the word starting at `hay[i]` (caller guarantees `i + W <=
/// hay.len()`).
#[inline]
fn load(hay: &[u8], i: usize) -> usize {
    usize::from_ne_bytes(hay[i..i + W].try_into().expect("W bytes"))
}

/// Index of the first occurrence of `needle` in `hay`.
#[inline]
pub fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    let n = splat(needle);
    let mut i = 0;
    while i + W <= hay.len() {
        if has_zero_byte(load(hay, i) ^ n) {
            break;
        }
        i += W;
    }
    hay[i..].iter().position(|&b| b == needle).map(|p| i + p)
}

/// Index of the first occurrence of `a` or `b` in `hay`.
#[inline]
pub fn memchr2(a: u8, b: u8, hay: &[u8]) -> Option<usize> {
    let (na, nb) = (splat(a), splat(b));
    let mut i = 0;
    while i + W <= hay.len() {
        let x = load(hay, i);
        if has_zero_byte(x ^ na) || has_zero_byte(x ^ nb) {
            break;
        }
        i += W;
    }
    hay[i..]
        .iter()
        .position(|&x| x == a || x == b)
        .map(|p| i + p)
}

/// Index of the first occurrence of `a`, `b` or `c` in `hay`.
#[inline]
pub fn memchr3(a: u8, b: u8, c: u8, hay: &[u8]) -> Option<usize> {
    let (na, nb, nc) = (splat(a), splat(b), splat(c));
    let mut i = 0;
    while i + W <= hay.len() {
        let x = load(hay, i);
        if has_zero_byte(x ^ na) || has_zero_byte(x ^ nb) || has_zero_byte(x ^ nc) {
            break;
        }
        i += W;
    }
    hay[i..]
        .iter()
        .position(|&x| x == a || x == b || x == c)
        .map(|p| i + p)
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
    fn memchr3_finds_the_earliest_of_its_set() {
        let hay = b"xxxxxxxxxxxxxxxxxxxxxxxxx\"yyyyyyyyyyyy'zzzzzzzzzz>";
        assert_eq!(memchr3(b'>', b'"', b'\'', hay), Some(25));
        assert_eq!(memchr3(b'>', b'%', b'!', hay), Some(hay.len() - 1));
        assert_eq!(memchr3(b'%', b'!', b'@', hay), None);
        assert_eq!(memchr3(b'a', b'b', b'c', b""), None);
    }
}
