// Fixture: the functions a stale-config test points its entries at.
// Nothing here violates a rule; only the config entries naming
// functions or files that do not exist may produce findings.

pub fn hot_insert(keys: &[u64], out: &mut Vec<u64>) {
    out.extend_from_slice(keys);
}

pub fn worker_step(n: u64) -> u64 {
    n.wrapping_add(1)
}
