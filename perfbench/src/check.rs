//! Result checks and wire/recorder matching.

/// An order-independent fingerprint of a multiset of result rows, each
/// row given as its CSV record. Equal multisets give equal
/// fingerprints; the fingerprint holds no rows, so checking a large
/// result costs one pass and no memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fingerprint {
    /// Row count.
    pub rows: u64,
    sum: u64,
    xor: u64,
}

impl Fingerprint {
    /// Add one row (its CSV record without the line break).
    pub fn add(&mut self, record: &str) {
        let h = fnv1a(record.as_bytes());
        self.rows += 1;
        self.sum = self.sum.wrapping_add(mix(h));
        self.xor ^= mix(h ^ 0x9e37_79b9_7f4a_7c15);
    }

    /// Fingerprint every line of `body` (a CSV body without header).
    pub fn of_lines(body: &str) -> Fingerprint {
        let mut f = Fingerprint::default();
        f.add_lines(body);
        f
    }

    /// Add every line of `body`.
    pub fn add_lines(&mut self, body: &str) {
        for line in body.lines() {
            self.add(line);
        }
    }

    /// Fingerprint a CSV text whose first line is a header.
    pub fn of_csv(csv: &str) -> Fingerprint {
        Fingerprint::of_lines(csv.split_once('\n').map_or("", |(_, rows)| rows))
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `key=value` field of a response's first line.
pub fn header_field<'a>(response: &'a str, key: &str) -> Option<&'a str> {
    response
        .lines()
        .next()?
        .split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
}

/// Wire time per request: client latency minus the engine wall time
/// the flight recorder holds for the same admission ticket. `client`
/// holds `(ticket, client_ms)`, `recorded` holds `(ticket, wall_ms)`;
/// a request whose ticket was never recorded gets `None` (its whole
/// latency is then unattributed, never guessed).
pub fn wire_ms_by_ticket(client: &[(u64, f64)], recorded: &[(u64, f64)]) -> Vec<Option<f64>> {
    client
        .iter()
        .map(|(ticket, client_ms)| {
            recorded
                .iter()
                .find(|(t, _)| t == ticket)
                .map(|(_, wall_ms)| client_ms - wall_ms)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_a_multiset_identity() {
        let a = Fingerprint::of_lines("1,x\n2,y\n2,y\n");
        assert_eq!(a, Fingerprint::of_lines("2,y\n1,x\n2,y\n"));
        assert_eq!(a.rows, 3);
        assert_ne!(a, Fingerprint::of_lines("1,x\n2,y\n"));
        assert_ne!(a, Fingerprint::of_lines("1,x\n2,y\n2,z\n"));
        assert_ne!(a, Fingerprint::of_lines("1,x\n1,x\n2,y\n"));
        assert_eq!(Fingerprint::of_csv("a,b\n1,x\n2,y\n2,y\n"), a);
    }

    #[test]
    fn header_fields_are_read_from_the_first_line() {
        let r = "ok rows=3 cols=2 ticket=17 sim_secs=0.25\na,b\nticket=9,1";
        assert_eq!(header_field(r, "ticket"), Some("17"));
        assert_eq!(header_field(r, "rows"), Some("3"));
        assert_eq!(header_field(r, "tick"), None);
        assert_eq!(header_field("err deadline exceeded", "ticket"), None);
    }

    #[test]
    fn wire_time_matches_records_by_ticket() {
        let client = [(5, 10.0), (6, 4.0), (7, 3.0)];
        // Records arrive in another order and include other runs.
        let recorded = [(7, 1.0), (4, 99.0), (5, 8.5)];
        assert_eq!(
            wire_ms_by_ticket(&client, &recorded),
            vec![Some(1.5), None, Some(2.0)]
        );
    }
}
