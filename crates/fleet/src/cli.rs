//! Sweep-flag parsing shared by the `fleet_sweep` and `explain`
//! binaries, so `explain` rebuilds exactly the sweep `fleet_sweep`
//! ran from the same flags.

use crate::{GridAxes, SweepConfig};

/// Parses `flag`'s `value`.
///
/// # Errors
///
/// A message naming the flag and the value that did not parse.
pub fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// The sweep-shaping flags both binaries take, each with a value.
const SWEEP_FLAGS: [&str; 8] = [
    "--users",
    "--scenarios",
    "--seed",
    "--governor",
    "--sim-seconds",
    "--device",
    "--catalog",
    "--grid",
];

/// Parses a command line (without `argv[0]`) into a [`SweepConfig`]
/// and the last `--catalog` directory's parse.
///
/// `--smoke` picks the base preset wherever it appears; every other
/// flag applies in command-line order, so an explicit flag overrides
/// the preset. `--catalog` directories install into the process-wide
/// device registry before any other flag resolves, so `--device all`,
/// `--grid` and unknown-device listings see the merged set wherever
/// `--catalog` sits. The binary's own flags (`own_values` take a
/// value, `own_switches` none) reach `own(config, flag, value)` in
/// command-line order, with an empty `value` for a switch.
///
/// # Errors
///
/// An empty message for `--help`/`-h`; otherwise a one-line message
/// for an unknown flag, a missing or unparsable value, a catalog that
/// fails to load, an unknown grid, or whatever `own` returns.
pub fn parse_sweep_args(
    args: impl IntoIterator<Item = String>,
    own_values: &[&str],
    own_switches: &[&str],
    mut own: impl FnMut(&mut SweepConfig, &str, String) -> Result<(), String>,
) -> Result<(SweepConfig, usta_catalog::Catalog), String> {
    let mut args = args.into_iter();
    let mut smoke = false;
    let mut flags: Vec<(String, String)> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--help" | "-h" => return Err(String::new()),
            flag if flag == "--no-usta" || own_switches.contains(&flag) => {
                flags.push((arg, String::new()))
            }
            flag if SWEEP_FLAGS.contains(&flag) || own_values.contains(&flag) => {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.push((arg, value));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }

    let mut catalog = usta_catalog::Catalog::default();
    for (flag, value) in &flags {
        if flag == "--catalog" {
            catalog = usta_catalog::Catalog::load_dir(value).map_err(|e| e.to_string())?;
            catalog.install().map_err(|e| e.to_string())?;
        }
    }

    let mut config = if smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::default()
    };
    for (flag, value) in flags {
        match flag.as_str() {
            "--users" => config.users = parse_value(&flag, &value)?,
            "--scenarios" => {
                config.scenarios = parse_value(&flag, &value)?;
                config.smoke = false;
            }
            "--seed" => config.seed = parse_value(&flag, &value)?,
            "--governor" => config.governor = value,
            "--sim-seconds" => config.max_sim_seconds = parse_value(&flag, &value)?,
            "--device" => {
                config.devices = if value.eq_ignore_ascii_case("all") {
                    usta_device::merged_ids()
                        .iter()
                        .map(|&n| n.to_owned())
                        .collect()
                } else {
                    value.split(',').map(|s| s.trim().to_owned()).collect()
                };
            }
            "--catalog" => {} // installed above
            "--grid" => {
                let spec = catalog.grid(&value).ok_or_else(|| {
                    let known: Vec<&str> = catalog.grids.iter().map(|g| g.name.as_str()).collect();
                    if known.is_empty() {
                        format!("--grid: unknown grid {value:?} (no grids loaded — pass --catalog DIR first)")
                    } else {
                        format!("--grid: unknown grid {value:?} (known: {})", known.join(", "))
                    }
                })?;
                config.grid = Some(GridAxes::from_spec(spec)?);
                config.smoke = false;
            }
            "--no-usta" => config.usta = false,
            _ => own(&mut config, &flag, value)?,
        }
    }
    Ok((config, catalog))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(
        line: &str,
        own: impl FnMut(&mut SweepConfig, &str, String) -> Result<(), String>,
    ) -> Result<SweepConfig, String> {
        let args = line.split_whitespace().map(str::to_owned);
        parse_sweep_args(args, &["--threads"], &["--quiet"], own).map(|(config, _)| config)
    }

    #[test]
    fn flags_override_the_smoke_preset_wherever_it_sits() {
        let config = parse("--users 3 --no-usta --smoke", |_, _, _| Ok(())).unwrap();
        assert!(config.smoke && !config.usta);
        assert_eq!(config.users, 3);
        assert_eq!(config.max_sim_seconds, SweepConfig::smoke().max_sim_seconds);
        let config = parse("--smoke --scenarios 5", |_, _, _| Ok(())).unwrap();
        assert_eq!(config.scenarios, 5);
        assert!(!config.smoke, "--scenarios leaves the fixed smoke catalog");
    }

    #[test]
    fn own_flags_reach_the_binary_in_order() {
        let mut seen = Vec::new();
        let config = parse("--threads 4 --quiet --seed 9", |config, flag, value| {
            config.threads = 7;
            seen.push((flag.to_owned(), value));
            Ok(())
        })
        .unwrap();
        assert_eq!(config.threads, 7);
        assert_eq!(config.seed, 9);
        assert_eq!(
            seen,
            vec![
                ("--threads".to_owned(), "4".to_owned()),
                ("--quiet".to_owned(), String::new())
            ]
        );
    }

    #[test]
    fn bad_command_lines_are_one_line_errors() {
        let ok = |_: &mut SweepConfig, _: &str, _: String| Ok(());
        assert_eq!(parse("--users 2 --help", ok), Err(String::new()));
        assert_eq!(
            parse("--trace-dir x", ok),
            Err("unknown flag \"--trace-dir\"".to_owned())
        );
        assert_eq!(parse("--seed", ok), Err("--seed needs a value".to_owned()));
        assert_eq!(
            parse("--users many", ok),
            Err("--users: cannot parse \"many\"".to_owned())
        );
        let grid = parse("--grid nope", ok).unwrap_err();
        assert!(grid.contains("unknown grid \"nope\""), "{grid}");
        assert_eq!(
            parse("--threads 2", |_, _, _| Err("own".to_owned())),
            Err("own".to_owned())
        );
    }
}
