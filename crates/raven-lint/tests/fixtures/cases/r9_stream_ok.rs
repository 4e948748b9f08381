//! R9 negative: constants, variables, and prefixed format! labels are all
//! disciplined spellings; test code is exempt.

use simbus::obs::streams;

pub fn seed(root: u64, idx: usize) -> (u64, u64, u64) {
    let a = stream_rng(root, streams::TREMOR);
    let b = stream_rng(root, &format!("{}{idx}", streams::TRAIN_PREFIX));
    let label = streams::SIMLINK;
    let c = stream_rng(root, label);
    (a, b, c)
}

fn stream_rng(root: u64, label: &str) -> u64 {
    root ^ label.len() as u64
}

#[cfg(test)]
mod tests {
    #[test]
    fn raw_labels_are_fine_in_tests() {
        super::stream_rng(0, "test-only-label");
    }
}
