//! The run-spec table: the one place where text becomes a
//! [`RunConfig`].
//!
//! Every front end that names a run — `heterosim`'s command line,
//! `POST /run` bodies — goes through [`RunSpec::set`], so each key,
//! name table and value syntax exists once. [`KEYS`] is the contract:
//! a front end spells a key `--dash-key VALUE` ([`RunSpec::set_arg`])
//! or `under_key=VALUE` ([`RunSpec::set`]), starts from its own
//! default configuration, and decides which keys it exposes.

use hsim_hydro::diffusion::DiffusionConfig;
use hsim_particles::ParticlesConfig;
use hsim_raja::Fidelity;

use crate::balance::RebalanceConfig;
use crate::calib;
use crate::mode::ExecMode;
use crate::node::NodeConfig;
use crate::runner::{Problem, RunConfig};

/// One key of the run-spec table.
#[derive(Debug)]
pub struct Key {
    /// The `under_key` spelling.
    pub name: &'static str,
    /// The value syntax; `None` for a flag, which takes no value.
    pub value: Option<&'static str>,
}

impl Key {
    const fn new(name: &'static str, value: Option<&'static str>) -> Key {
        Key { name, value }
    }

    /// The command-line spelling, `--dash-key`.
    pub fn flag(&self) -> String {
        format!("--{}", self.name.replace('_', "-"))
    }
}

const PROBLEMS: &str = "sedov|sod|noh|taylor-green|perturbed";

/// Every key [`RunSpec::set`] understands.
pub static KEYS: [Key; 17] = [
    Key::new("mode", Some("default|mps|hetero|cpuonly")),
    Key::new("grid", Some("X,Y,Z")),
    Key::new("cycles", Some("N")),
    Key::new("full", None),
    Key::new("node", Some("rzhasgpu|fixed|sierra")),
    Key::new("gpu_direct", None),
    Key::new("diffusion", Some("KAPPA")),
    Key::new("multipolicy", Some("N")),
    Key::new("fraction", Some("F")),
    Key::new("faults", Some("SPEC")),
    Key::new("rebalance", Some("every=N,hysteresis=X")),
    Key::new("scenario", Some(PROBLEMS)),
    Key::new("problem", Some(PROBLEMS)),
    Key::new("trace", None),
    Key::new("particles", Some("COUNT[,DRAG[,SEED]]")),
    Key::new("host_threads", Some("N")),
    Key::new("tile", Some("TY,TZ")),
];

fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// The parts of a comma-separated value, surrounding blanks ignored.
fn parts(s: &str) -> impl Iterator<Item = &str> {
    s.split(',').map(str::trim)
}

fn parse_grid(s: &str) -> Option<(usize, usize, usize)> {
    let mut dims = parts(s).map(num::<usize>);
    match (dims.next()?, dims.next()?, dims.next()?, dims.next()) {
        (Some(x), Some(y), Some(z), None) => Some((x, y, z)),
        _ => None,
    }
}

/// `COUNT[,DRAG[,SEED]]`; omitted parts keep their defaults.
fn parse_particles(s: &str) -> Option<ParticlesConfig> {
    let mut cfg = ParticlesConfig::default();
    let mut parts = parts(s);
    cfg.count = num(parts.next()?)?;
    if let Some(drag) = parts.next() {
        cfg.drag = num(drag)?;
    }
    if let Some(seed) = parts.next() {
        cfg.seed = num(seed)?;
    }
    parts.next().is_none().then_some(cfg)
}

/// A [`RunConfig`] under construction from `key = value` text.
#[derive(Debug)]
pub struct RunSpec {
    cfg: RunConfig,
    /// `fraction` applies to the heterogeneous mode whichever of
    /// `mode` and `fraction` came first, so it is held until
    /// [`RunSpec::finish`].
    fraction: Option<f64>,
}

impl RunSpec {
    /// Start from a front end's default configuration.
    pub fn new(defaults: RunConfig) -> RunSpec {
        RunSpec {
            cfg: defaults,
            fraction: None,
        }
    }

    /// Set one key from its textual value (`""` for a flag).
    pub fn set(&mut self, key: &str, v: &str) -> Result<(), String> {
        let bad = || format!("bad {key} `{v}`");
        let why = |e: String| format!("{}: {e}", bad());
        let cfg = &mut self.cfg;
        match key {
            "mode" => cfg.mode = ExecMode::parse(v).ok_or_else(bad)?,
            "grid" => cfg.grid = parse_grid(v).ok_or_else(bad)?,
            "cycles" => cfg.cycles = num(v).ok_or_else(bad)?,
            "full" => cfg.fidelity = Fidelity::Full,
            "node" => {
                cfg.node = match v {
                    "rzhasgpu" => NodeConfig::rzhasgpu(),
                    "fixed" => NodeConfig::rzhasgpu_fixed_compiler(),
                    "sierra" => NodeConfig::sierra_ea(),
                    _ => return Err(bad()),
                }
            }
            "gpu_direct" => cfg.gpu_direct = true,
            "diffusion" => {
                cfg.diffusion = Some(DiffusionConfig {
                    kappa: num(v).ok_or_else(bad)?,
                })
            }
            "multipolicy" => cfg.multipolicy_threshold = num(v).ok_or_else(bad)?,
            "fraction" => self.fraction = Some(num(v).ok_or_else(bad)?),
            "faults" => cfg.faults = Some(hsim_faults::FaultPlan::parse(v).map_err(why)?),
            "rebalance" => cfg.rebalance = Some(RebalanceConfig::parse(v).map_err(why)?),
            "scenario" | "problem" => cfg.problem = Problem::parse(v).ok_or_else(bad)?,
            "trace" => cfg.trace = true,
            "particles" => cfg.particles = Some(parse_particles(v).ok_or_else(bad)?),
            "host_threads" => cfg.host_threads = num(v).ok_or_else(bad)?,
            "tile" => cfg.tile = Some(calib::parse_tile_spec(v).map_err(why)?),
            _ => return Err(format!("unknown key `{key}`")),
        }
        Ok(())
    }

    /// Set one key from its command-line spelling, pulling the value
    /// (if the key takes one) from `value`. `Ok(false)`: `arg` is not
    /// a key of the table and nothing was consumed.
    pub fn set_arg(
        &mut self,
        arg: &str,
        value: impl FnOnce() -> Option<String>,
    ) -> Result<bool, String> {
        let Some(key) = KEYS.iter().find(|k| k.flag() == arg) else {
            return Ok(false);
        };
        let v = match key.value {
            Some(syntax) => value().ok_or_else(|| format!("{arg} needs a value ({syntax})"))?,
            None => String::new(),
        };
        self.set(key.name, &v).map(|()| true)
    }

    /// The finished configuration.
    pub fn finish(mut self) -> RunConfig {
        if let (ExecMode::Heterogeneous { cpu_fraction }, Some(f)) =
            (&mut self.cfg.mode, self.fraction)
        {
            *cpu_fraction = Some(f);
        }
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    /// `heterosim`'s starting point.
    fn cli() -> RunSpec {
        RunSpec::new(RunConfig::sweep((320, 480, 160), ExecMode::hetero()))
    }

    /// Parse a `heterosim` argument vector the way the binary does:
    /// its own flags aside, every argument goes through `set_arg`.
    fn cli_hash(args: &str) -> u64 {
        let mut spec = cli();
        let mut telemetry = false;
        let mut it = args.split_whitespace().map(String::from);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--no-balance" | "--csv" => {}
                "--trace-json" | "--metrics-json" => telemetry = it.next().is_some(),
                _ => assert_eq!(spec.set_arg(&arg, || it.next()), Ok(true), "{arg}"),
            }
        }
        let mut cfg = spec.finish();
        cfg.telemetry = telemetry;
        cfg.content_hash()
    }

    #[test]
    fn both_spellings_of_every_key_agree() {
        let values = [
            ("mode", "mps"),
            ("grid", "24,16,8"),
            ("cycles", "3"),
            ("full", ""),
            ("node", "sierra"),
            ("gpu_direct", ""),
            ("diffusion", "0.01"),
            ("multipolicy", "4096"),
            ("fraction", "0.05"),
            ("faults", "xfer.delay@rank1.cycle2:ns=200000"),
            ("rebalance", "every=2,hysteresis=0.02"),
            ("scenario", "noh"),
            ("problem", "perturbed"),
            ("trace", ""),
            ("particles", "128,0.5,9"),
            ("host_threads", "2"),
            ("tile", "8x16"),
        ];
        assert_eq!(values.len(), KEYS.len());
        let base = cli().finish().content_hash();
        for (key, (name, v)) in KEYS.iter().zip(values) {
            assert_eq!(key.name, name, "the value list follows the table");
            assert_eq!(key.value.is_some(), !v.is_empty(), "{name}");
            let (mut dash, mut under) = (cli(), cli());
            assert_eq!(dash.set_arg(&key.flag(), || Some(v.to_string())), Ok(true));
            under.set(name, v).expect(name);
            let hash = dash.finish().content_hash();
            assert_eq!(hash, under.finish().content_hash(), "{name}");
            assert_ne!(hash, base, "{name} moves the config");
        }
        // The underscore spelling is not a command-line flag, and a
        // value key without its value is an error, not a default.
        assert_eq!(cli().set_arg("--host_threads", || None), Ok(false));
        assert!(cli().set_arg("--mode", || None).is_err());
        assert!(cli().set("frobnicate", "1").is_err());
    }

    /// The help string is the one copy of the problem names outside
    /// `Problem::parse`: it names every problem once.
    #[test]
    fn every_problem_name_parses_to_a_distinct_problem() {
        let named: Vec<Problem> = PROBLEMS
            .split('|')
            .map(|name| Problem::parse(name).expect(name))
            .collect();
        let every = Scenario::ALL.map(Problem::Scenario);
        assert_eq!(named.len(), every.len() + 1);
        for p in every.into_iter().chain([Problem::Perturbed]) {
            assert_eq!(named.iter().filter(|&&q| q == p).count(), 1, "{p:?}");
        }
    }

    #[test]
    fn mode_names_round_trip_and_fraction_commutes_with_mode() {
        for m in [
            ExecMode::CpuOnly,
            ExecMode::Default,
            ExecMode::mps4(),
            ExecMode::hetero(),
        ] {
            assert_eq!(ExecMode::parse(&m.key()), Some(m));
        }
        assert_eq!(ExecMode::parse("mps"), Some(ExecMode::mps4()));
        assert_eq!(ExecMode::parse("warp"), None);

        let want = ExecMode::Heterogeneous {
            cpu_fraction: Some(0.05),
        };
        for order in [["fraction", "mode"], ["mode", "fraction"]] {
            let mut spec = RunSpec::new(RunConfig::sweep((64, 48, 32), ExecMode::Default));
            for key in order {
                let v = if key == "mode" { "hetero" } else { "0.05" };
                spec.set(key, v).expect(key);
            }
            assert_eq!(spec.finish().mode, want, "{order:?}");
        }
        // A fraction without the heterogeneous mode is inert.
        let mut spec = RunSpec::new(RunConfig::sweep((64, 48, 32), ExecMode::Default));
        spec.set("fraction", "0.05").expect("fraction");
        assert_eq!(spec.finish().mode, ExecMode::Default);
    }

    #[test]
    fn malformed_values_are_rejected() {
        for (key, v) in [
            ("mode", "warp"),
            ("grid", "1,2"),
            ("grid", "1,2,3,4"),
            ("grid", "1,-2,3"),
            ("cycles", "ten"),
            ("node", "mars"),
            ("diffusion", "hot"),
            ("fraction", "half"),
            ("faults", "nonsense"),
            ("rebalance", "every=0"),
            ("scenario", "vortex"),
            ("problem", "vortex"),
            ("particles", "lots"),
            ("particles", "1,2,3,4"),
            ("tile", "8"),
            ("tile", "0x8"),
        ] {
            assert!(cli().set(key, v).is_err(), "{key}={v}");
        }
    }

    /// The argument vectors of every `heterosim` run in
    /// `.github/workflows/ci.yml` and README.md, and the content hash
    /// each parsed to before the table existed (hand-written parser,
    /// parent of the commit that added this file).
    #[test]
    fn ci_and_readme_command_lines_keep_their_content_hash() {
        const PLAN: &str = "xfer.delay@rank1.cycle2:ns=200000;rank.loss@rank5.cycle4";
        const JSON: &str = "--trace-json t.json --metrics-json m.json";
        for (args, want) in PINNED {
            let args = args.replace("$PLAN", PLAN).replace("$JSON", JSON);
            assert_eq!(cli_hash(&args), *want, "{args}");
        }
    }

    #[rustfmt::skip]
    const PINNED: &[(&str, u64)] = &[
        // ci.yml chaos-smoke: hetero and cpuonly legs, then the controller leg.
        ("--mode hetero --fraction 0.05 --grid 64,96,64 --cycles 6 --no-balance --scenario sedov --particles 256 --faults $PLAN $JSON", 0xaa7f012ba59865c5),
        ("--mode hetero --fraction 0.05 --grid 64,96,64 --cycles 6 --no-balance --scenario sod --particles 256 --faults $PLAN $JSON", 0xa6478e638e8f699b),
        ("--mode hetero --fraction 0.05 --grid 64,96,64 --cycles 6 --no-balance --scenario noh --particles 256 --faults $PLAN $JSON", 0x99357bb95111c47c),
        ("--mode hetero --fraction 0.05 --grid 64,96,64 --cycles 6 --no-balance --scenario taylor-green --particles 256 --faults $PLAN $JSON", 0xc45987be925f9170),
        ("--mode cpuonly --grid 64,96,64 --cycles 6 --no-balance --scenario sedov --particles 256 --faults xfer.delay@rank1.cycle2:ns=200000 $JSON", 0xe6c6134231b1f112),
        ("--mode cpuonly --grid 64,96,64 --cycles 6 --no-balance --scenario sod --particles 256 --faults xfer.delay@rank1.cycle2:ns=200000 $JSON", 0x2d447c76527b7f50),
        ("--mode cpuonly --grid 64,96,64 --cycles 6 --no-balance --scenario noh --particles 256 --faults xfer.delay@rank1.cycle2:ns=200000 $JSON", 0x0c476fb0431c7d95),
        ("--mode cpuonly --grid 64,96,64 --cycles 6 --no-balance --scenario taylor-green --particles 256 --faults xfer.delay@rank1.cycle2:ns=200000 $JSON", 0x843d7576a12690d1),
        ("--mode hetero --grid 64,96,64 --cycles 6 --fraction 0.30 --rebalance every=2,hysteresis=0.02 --scenario sedov --particles 256 --faults $PLAN $JSON", 0x6116e80c6b10166b),
        ("--mode hetero --grid 64,96,64 --cycles 6 --fraction 0.30 --rebalance every=2,hysteresis=0.02 --scenario sod --particles 256 --faults $PLAN $JSON", 0xcea2aa643e408035),
        ("--mode hetero --grid 64,96,64 --cycles 6 --fraction 0.30 --rebalance every=2,hysteresis=0.02 --scenario noh --particles 256 --faults $PLAN $JSON", 0xc457ed7d3c31a64a),
        ("--mode hetero --grid 64,96,64 --cycles 6 --fraction 0.30 --rebalance every=2,hysteresis=0.02 --scenario taylor-green --particles 256 --faults $PLAN $JSON", 0x0ef140d47d503a36),
        // ci.yml rebalance-gate.
        ("--mode hetero --grid 64,96,64 --cycles 8 --fraction 0.30 --rebalance every=2,hysteresis=0.02 --particles 512 --faults rank.loss@rank5.cycle4 $JSON", 0x26e345b9c5330ca6),
        // Its full-fidelity legs, added after the table: pinned at what it parsed them to.
        ("--mode hetero --full --grid 32,48,32 --cycles 8 --fraction 0.30 --rebalance every=2,hysteresis=0.02 --particles 512 --diffusion 0.001 --tile 8,8 --faults rank.loss@rank5.cycle5 $JSON", 0x5d6310a8bea7d460),
        ("--mode mps --full --grid 32,48,32 --cycles 3 --faults gpu.launch@rank1.cycle1:perm", 0x673fdef1a944ef8b),
        // ci.yml perf-smoke: added up against stepped (telemetry on), pinned as above.
        ("--mode default --no-balance --grid 320,240,160 --cycles 200 --csv", 0x93aedf33f8c94759),
        ("--mode mps --no-balance --grid 320,240,160 --cycles 200 --csv --metrics-json /dev/null", 0x25e9d06249803851),
        ("--mode hetero --no-balance --grid 320,240,160 --cycles 200 --csv", 0x4a9b4a1db0a883c7),
        ("--mode hetero --diffusion 0.001 --no-balance --grid 320,240,160 --cycles 200 --csv --metrics-json /dev/null", 0xe4c5632ec4fd8965),
        ("--mode mps --no-balance --grid 64,48,32 --diffusion 0.001 --cycles 2000 --csv", 0xcf0a93dff177268f),
        ("--mode cpuonly --no-balance --grid 64,48,32 --diffusion 0.001 --cycles 2000 --csv --metrics-json /dev/null", 0x2114af6b302857a0),
        // README.md.
        ("--mode hetero --full --tile 8,8", 0x703c3fa7b060b7da),
        ("--mode hetero --grid 600,480,160 --trace", 0xfc7f370299716170),
        ("--mode mps --problem sod --full --grid 128,8,8", 0xd5d224c19ee347b4),
        ("--mode hetero --full --scenario taylor-green --grid 36,56,64 --particles 512", 0xb951c1f1fe6afd68),
        ("--mode hetero --grid 64,48,32 $JSON", 0x6eaad3f473d5b5e3),
        ("--mode hetero --grid 64,96,64 --cycles 6 --fraction 0.05 --no-balance --faults $PLAN --metrics-json m.json", 0xa000a781b87c1fa2),
        ("--mode hetero --grid 64,96,64 --cycles 8 --fraction 0.30 --rebalance every=2,hysteresis=0.02", 0x11267fc1ade3c1a8),
        // The binary's own doc examples.
        ("--mode hetero --grid 600,480,160", 0xe1c5608ec50c57e3),
        ("--mode mps --grid 320,240,160 --trace", 0xa786edeb07ff6941),
        // `fraction` before `mode`, and the keys nothing above uses.
        ("--fraction 0.05 --mode hetero --grid 64,48,32 --cycles 4", 0x8993ad70b1fb344e),
        ("--mode default --node sierra --gpu-direct --diffusion 0.01 --multipolicy 4096 --host-threads 2 --problem perturbed --particles 128,0.5,9 --csv", 0xd005e34b6743e0ba),
    ];
}
