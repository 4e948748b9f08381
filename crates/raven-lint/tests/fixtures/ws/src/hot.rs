//! Call-graph fixtures. `HotLoop::step` is the configured entry point;
//! `deep` sits two calls away, so its panic (R3) is only findable by
//! walking the graph. The same panic behind
//! `#[cfg(test)]` and in the unreachable `cold_path` must stay invisible.

pub struct HotLoop {
    vals: Vec<u8>,
}

impl HotLoop {
    pub fn step(&mut self) -> u8 {
        middle(&self.vals)
    }
}

fn middle(vals: &[u8]) -> u8 {
    deep(vals)
}

fn deep(vals: &[u8]) -> u8 {
    *vals.first().expect("non-empty") // R3: two calls from step
}

/// Never called from the entry point: its panic must NOT be reported.
pub fn cold_path() -> u8 {
    panic!("cold-path-marker: unreachable from HotLoop::step")
}

#[cfg(test)]
mod tests {
    #[test]
    fn cfg_gated() {
        // A call under #[cfg(test)] is not a graph edge...
        super::HotLoop { vals: Vec::new() }.step();
        cfg_only();
    }

    fn cfg_only() {
        // ...so this panic must not be reported either.
        panic!("cfg-test-marker: must not be reported");
    }
}
