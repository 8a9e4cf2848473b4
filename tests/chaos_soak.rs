//! The chaos-soak matrix CI runs, as a Tier-1 test: seeds 1..=8 of the
//! `chaos` binary in quick mode — plain, with every worker killed
//! mid-round, and with the audit running live — plus the `--replay` digest
//! guard. A quick round takes tens of milliseconds.

use std::process::{Command, Output};

fn chaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .output()
        .expect("chaos binary runs")
}

#[test]
fn quick_matrix_passes_on_seeds_1_to_8() {
    for seed in 1..=8u64 {
        let seed = seed.to_string();
        for extra in [&[][..], &["--kill"], &["--live-audit"]] {
            let mut args = vec!["--seed", seed.as_str(), "--quick"];
            args.extend_from_slice(extra);
            let out = chaos(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("chaos soak passed"),
                "chaos {args:?} failed ({}):\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}

#[test]
fn replay_with_a_wrong_digest_refuses_to_run() {
    let out = chaos(&["--replay", "3@0x0000000000000001", "--quick"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "a wrong digest must exit non-zero");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("schedule digest mismatch"),
        "expected the digest-mismatch message"
    );
    assert!(
        !stdout.contains("round 0"),
        "no round may run before the digest is verified:\n{stdout}"
    );
}
