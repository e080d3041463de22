//! The benchmark's own load generator: a seeded, deterministic request
//! stream for the kvstore's text protocol, and the exact replies it expects.
//!
//! Every key and value is a pure function of the seed, so the same seed
//! gives a byte-identical request stream, and the generator can always say
//! which reply a correct server must send.

use std::collections::HashMap;

/// splitmix64: a small, well-mixed PRNG whose whole state is one `u64`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The traffic mix of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Share of GETs in percent; the rest are SETs.
    pub get_percent: u64,
    /// Length of every stored value.
    pub value_len: usize,
    /// Number of distinct keys.
    pub keys: usize,
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Get(usize),
    Set(usize, Vec<u8>),
}

/// Value bytes are drawn from this alphabet: the kvstore splits its
/// command line on whitespace, so values must not contain any.
const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";

/// A deterministic request stream and the store contents a correct server
/// holds after the requests issued so far.
#[derive(Debug, Clone)]
pub struct Generator {
    mix: Mix,
    rng: Rng,
    expected: HashMap<usize, Vec<u8>>,
}

impl Generator {
    /// A stream for `mix` drawn from `seed`.
    pub fn new(mix: Mix, seed: u64) -> Self {
        Generator {
            mix,
            rng: Rng::new(seed),
            expected: HashMap::new(),
        }
    }

    fn key_name(key: usize) -> String {
        format!("key:{key:05}")
    }

    fn value(&mut self) -> Vec<u8> {
        let mut value = Vec::with_capacity(self.mix.value_len);
        let mut word = 0u64;
        for index in 0..self.mix.value_len {
            if index % 8 == 0 {
                word = self.rng.next_u64();
            }
            value.push(ALPHABET[(word % ALPHABET.len() as u64) as usize]);
            word >>= 8;
        }
        value
    }

    /// SETs for every key, so that every later GET hits.
    pub fn preload(&mut self) -> Vec<Op> {
        (0..self.mix.keys).map(|key| self.set(key)).collect()
    }

    /// The next request of the stream.
    fn next_op(&mut self) -> Op {
        let key = self.rng.below(self.mix.keys as u64) as usize;
        if self.rng.below(100) < self.mix.get_percent {
            Op::Get(key)
        } else {
            self.set(key)
        }
    }

    /// The next request's wire bytes and the reply it must get.
    pub fn next_exchange(&mut self) -> (Vec<u8>, Vec<u8>) {
        let op = self.next_op();
        self.wire(&op)
    }

    /// `op`'s wire bytes and the reply it must get, given the requests
    /// generated before it.
    pub fn wire(&self, op: &Op) -> (Vec<u8>, Vec<u8>) {
        (Self::encode(op), self.expected_reply(op))
    }

    /// A SET of a fresh value, remembered as what `key` now holds.
    fn set(&mut self, key: usize) -> Op {
        let value = self.value();
        self.expected.insert(key, value.clone());
        Op::Set(key, value)
    }

    /// The wire bytes of `op`.
    fn encode(op: &Op) -> Vec<u8> {
        match op {
            Op::Get(key) => format!("GET {}\n", Self::key_name(*key)).into_bytes(),
            Op::Set(key, value) => {
                let mut line = format!("SET {} ", Self::key_name(*key)).into_bytes();
                line.extend_from_slice(value);
                line.push(b'\n');
                line
            }
        }
    }

    /// The exact reply a correct server sends to `op` given the requests
    /// issued before it.
    fn expected_reply(&self, op: &Op) -> Vec<u8> {
        match op {
            Op::Get(key) => match self.expected.get(key) {
                Some(value) => {
                    let mut reply = Vec::with_capacity(value.len() + 2);
                    reply.push(b'$');
                    reply.extend_from_slice(value);
                    reply.push(b'\n');
                    reply
                }
                None => b"$-1\n".to_vec(),
            },
            Op::Set(..) => b"+OK\n".to_vec(),
        }
    }

    /// GETs of every key, to read back what the SETs stored.
    pub fn verify_ops(&self) -> Vec<Op> {
        (0..self.mix.keys).map(Op::Get).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: Mix = Mix {
        get_percent: 50,
        value_len: 40,
        keys: 16,
    };

    fn stream(seed: u64, count: usize) -> Vec<u8> {
        let mut generator = Generator::new(MIX, seed);
        let mut bytes = Vec::new();
        for op in generator.preload() {
            bytes.extend(Generator::encode(&op));
        }
        for _ in 0..count {
            bytes.extend(Generator::encode(&generator.next_op()));
        }
        bytes
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(stream(7, 500), stream(7, 500));
        assert_ne!(stream(7, 500), stream(8, 500));
    }

    #[test]
    fn values_never_contain_protocol_separators() {
        let bytes = stream(3, 200);
        let text = String::from_utf8(bytes).expect("ascii");
        for line in text.lines() {
            assert!(line.split(' ').count() <= 3, "{line}");
        }
    }

    #[test]
    fn expected_replies_follow_the_latest_set() {
        let mut generator = Generator::new(MIX, 5);
        generator.preload();
        let set = loop {
            if let op @ Op::Set(..) = generator.next_op() {
                break op;
            }
        };
        let Op::Set(key, value) = &set else {
            unreachable!()
        };
        let reply = generator.expected_reply(&Op::Get(*key));
        assert_eq!(&reply[1..reply.len() - 1], value.as_slice());
        assert_eq!(generator.expected_reply(&set), b"+OK\n");
    }
}
