//! Single-triple replay CLI: a causal account of one sweep triple.
//!
//! Given the same sweep-shaping flags as `fleet_sweep` plus `--triple
//! N`, replays that one (user, scenario, device) triple with a
//! full-duration flight recorder attached and prints why the governor
//! did what it did: the band-transition timeline, the worst prediction
//! residuals, the arbiter's budget changes, and the windows where
//! thermal caps actually bound. The replayed outcome is bit-identical
//! to what the sweep recorded for that triple (`triples.csv` /
//! `flight-*.json`), so the account is evidence, not approximation.

use std::process::ExitCode;

use usta_fleet::cli::{parse_sweep_args, parse_value};
use usta_fleet::{explain_triple, SweepConfig};

fn usage() -> String {
    format!(
        "\
explain — replay one sweep triple and print its decision provenance

USAGE:
    explain --triple N [SWEEP OPTIONS]

The sweep options must match the fleet_sweep run being explained:

OPTIONS:
    --triple N         triple index to replay (required)
    --users N          sampled users                      [default: 100]
    --scenarios N      scenarios sampled from the grid    [default: 4]
    --seed N           run seed                           [default: 42]
    --governor NAME    baseline governor                  [default: ondemand]
    --device LIST      comma-separated device ids, or \"all\" [default: nexus4]
                       (known: {})
    --catalog DIR      merge device/grid catalog files from DIR over the
                       built-in registry (must match the sweep's)
    --grid NAME        sample scenarios from the named catalog grid's axes
                       (needs --catalog; must match the sweep's)
    --no-usta          explain the bare baseline (no USTA wrap)
    --sim-seconds F    per-triple simulated-time cap      [default: 180]
    --smoke            the CI smoke preset grid
    --help             print this help
",
        usta_device::merged_ids().join(", ")
    )
}

fn parse_args() -> Result<(SweepConfig, usize), String> {
    let mut triple: Option<usize> = None;
    let (config, _) = parse_sweep_args(
        std::env::args().skip(1),
        &["--triple"],
        &[],
        |_, flag, value| {
            triple = Some(parse_value(flag, &value)?);
            Ok(())
        },
    )?;
    let triple = triple.ok_or_else(|| "--triple is required".to_owned())?;
    Ok((config, triple))
}

fn main() -> ExitCode {
    let (config, triple) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            if message.is_empty() {
                eprint!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match explain_triple(&config, triple) {
        Ok(explanation) => {
            print!("{}", explanation.render());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
