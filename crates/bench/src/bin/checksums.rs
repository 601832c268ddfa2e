//! Prints each workload's checksum on the D16 target (used to pin the
//! `expected` values in `d16-workloads`), extras included.

fn main() {
    for w in d16_workloads::SUITE.iter().chain(d16_workloads::EXTRAS) {
        match d16_core::measure(w, &d16_cc::TargetSpec::d16(), false, &Default::default()) {
            Ok((m, _)) => println!("{}: {}", w.name, m.exit),
            Err(e) => println!("{}: ERROR {e}", w.name),
        }
    }
}
