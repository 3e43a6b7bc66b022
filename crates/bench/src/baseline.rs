//! The persistent performance baseline: `BENCH_poa.json`.
//!
//! `bench_poa` (the runner binary) measures a fixed case list on the
//! hand-rolled harness and serialises the result through this module.
//! The schema is versioned and deliberately timestamp-free so two runs
//! of the same toolchain on the same machine produce comparable files,
//! and `diff` can flag median regressions against a checked-in
//! baseline without fuzzy matching.

use std::fmt;

use alidrone_obs::{Json, JsonError, ToJson};

/// Version stamp written into every baseline file; bump on any breaking
/// schema change so `diff` refuses to compare incompatible files.
pub const SCHEMA_VERSION: u64 = 1;

/// One measured benchmark case.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Stable case name (e.g. `rsa_verify_2048`).
    pub name: String,
    /// How many harness samples produced the quantiles.
    pub samples: u64,
    /// Median nanoseconds per operation.
    pub median_ns: f64,
    /// 95th-percentile nanoseconds per operation.
    pub p95_ns: f64,
    /// 99th-percentile nanoseconds per operation.
    pub p99_ns: f64,
    /// Operations per second implied by the median.
    pub throughput_per_sec: f64,
}

/// The machine the baseline was measured on. Coarse on purpose: enough
/// to notice a baseline came from a different architecture, without
/// leaking hostnames into a committed artefact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    /// `std::env::consts::OS` at measurement time.
    pub os: String,
    /// `std::env::consts::ARCH` at measurement time.
    pub arch: String,
    /// `std::thread::available_parallelism`, 0 if unknown.
    pub parallelism: u64,
    /// The Montgomery kernel an 8-word modulus runs
    /// (`alidrone_crypto::bigint::backend`: `"adx"` or `"portable"`).
    /// Every case that signs with a 1024-bit key moves with it. `None`
    /// for files written before it was recorded.
    pub montgomery: Option<String>,
    /// The SHA-256 kernel in use (`alidrone_crypto::sha256::backend`:
    /// `"sha-ni"` or `"portable"`). Every hashing case moves with it.
    /// `None` for files written before it was recorded.
    pub sha256: Option<String>,
    /// The CRC-32 kernel in use (`alidrone_crypto::crc32::backend`:
    /// `"pclmul"` or `"portable"`). `crc32_1mib` and every case that
    /// walks journal frames move with it. `None` for files written
    /// before it was recorded.
    pub crc32: Option<String>,
}

impl Machine {
    /// The machine running this process.
    pub fn current() -> Machine {
        Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            parallelism: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
            montgomery: Some(alidrone_crypto::bigint::backend().to_string()),
            sha256: Some(alidrone_crypto::sha256::backend().to_string()),
            crc32: Some(alidrone_crypto::crc32::backend().to_string()),
        }
    }
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}, {} threads, montgomery {}, sha256 {}, crc32 {}",
            self.os,
            self.arch,
            self.parallelism,
            self.montgomery.as_deref().unwrap_or("unrecorded"),
            self.sha256.as_deref().unwrap_or("unrecorded"),
            self.crc32.as_deref().unwrap_or("unrecorded")
        )
    }
}

/// A full baseline document: schema version, machine description, and
/// the measured cases in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Must equal [`SCHEMA_VERSION`] for `diff` to accept the file.
    pub schema_version: u64,
    /// Where the numbers came from.
    pub machine: Machine,
    /// The measured cases.
    pub cases: Vec<BenchCase>,
}

impl Baseline {
    /// An empty baseline for the current machine.
    pub fn new() -> Baseline {
        Baseline {
            schema_version: SCHEMA_VERSION,
            machine: Machine::current(),
            cases: Vec::new(),
        }
    }

    /// Case lookup by name.
    pub fn case(&self, name: &str) -> Option<&BenchCase> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// Parses a baseline previously produced by [`ToJson`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field, or
    /// the underlying JSON syntax error.
    pub fn parse(text: &str) -> Result<Baseline, BaselineError> {
        let doc = Json::parse(text)?;
        let schema_version = field_u64(&doc, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(BaselineError::Schema(format!(
                "unsupported schema_version {schema_version} (want {SCHEMA_VERSION})"
            )));
        }
        let machine = doc
            .get("machine")
            .ok_or_else(|| BaselineError::Schema("missing field machine".into()))?;
        let machine = Machine {
            os: field_str(machine, "os")?,
            arch: field_str(machine, "arch")?,
            parallelism: field_u64(machine, "parallelism")?,
            montgomery: optional_str(machine, "montgomery")?,
            sha256: optional_str(machine, "sha256")?,
            crc32: optional_str(machine, "crc32")?,
        };
        let raw_cases = doc
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or_else(|| BaselineError::Schema("missing array field cases".into()))?;
        let mut cases = Vec::with_capacity(raw_cases.len());
        for case in raw_cases {
            let name = field_str(case, "name")?;
            // `case` looks names up first-match, so a second entry
            // would be silently ignored by every diff.
            if cases.iter().any(|c: &BenchCase| c.name == name) {
                return Err(BaselineError::Schema(format!("duplicate case {name}")));
            }
            cases.push(BenchCase {
                name,
                samples: field_u64(case, "samples")?,
                median_ns: field_f64(case, "median_ns")?,
                p95_ns: field_f64(case, "p95_ns")?,
                p99_ns: field_f64(case, "p99_ns")?,
                throughput_per_sec: field_f64(case, "throughput_per_sec")?,
            });
        }
        Ok(Baseline {
            schema_version,
            machine,
            cases,
        })
    }
}

impl Default for Baseline {
    fn default() -> Baseline {
        Baseline::new()
    }
}

impl ToJson for BenchCase {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("samples", Json::Num(self.samples as f64)),
            ("median_ns", Json::Num(self.median_ns)),
            ("p95_ns", Json::Num(self.p95_ns)),
            ("p99_ns", Json::Num(self.p99_ns)),
            ("throughput_per_sec", Json::Num(self.throughput_per_sec)),
        ])
    }
}

impl ToJson for Baseline {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::Num(self.schema_version as f64)),
            (
                "machine",
                Json::obj(
                    [
                        ("os", Json::str(&self.machine.os)),
                        ("arch", Json::str(&self.machine.arch)),
                        ("parallelism", Json::Num(self.machine.parallelism as f64)),
                    ]
                    .into_iter()
                    .chain(
                        [
                            ("montgomery", &self.machine.montgomery),
                            ("sha256", &self.machine.sha256),
                            ("crc32", &self.machine.crc32),
                        ]
                        .into_iter()
                        .filter_map(|(key, backend)| Some((key, Json::str(backend.as_ref()?)))),
                    ),
                ),
            ),
            ("cases", Json::arr(self.cases.iter().map(ToJson::to_json))),
        ])
    }
}

/// What went wrong reading a baseline file.
#[derive(Debug)]
pub enum BaselineError {
    /// The text is not valid JSON.
    Json(JsonError),
    /// The JSON does not match the baseline schema.
    Schema(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Json(e) => write!(f, "invalid JSON: {e}"),
            BaselineError::Schema(msg) => write!(f, "invalid baseline: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<JsonError> for BaselineError {
    fn from(e: JsonError) -> BaselineError {
        BaselineError::Json(e)
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, BaselineError> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| BaselineError::Schema(format!("missing numeric field {key}")))
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, BaselineError> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| BaselineError::Schema(format!("missing integer field {key}")))
}

/// A string field that older files may lack.
fn optional_str(obj: &Json, key: &str) -> Result<Option<String>, BaselineError> {
    obj.get(key).map(|_| field_str(obj, key)).transpose()
}

fn field_str(obj: &Json, key: &str) -> Result<String, BaselineError> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| BaselineError::Schema(format!("missing string field {key}")))
}

/// One case compared across two baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseDelta {
    /// The case name shared by both baselines.
    pub name: String,
    /// Old median nanoseconds.
    pub old_median_ns: f64,
    /// New median nanoseconds.
    pub new_median_ns: f64,
    /// `new / old` (> 1.0 means slower).
    pub ratio: f64,
    /// Whether the slowdown exceeds the diff threshold.
    pub regressed: bool,
}

/// The outcome of comparing two baselines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Cases present in both files, in the new file's order.
    pub deltas: Vec<CaseDelta>,
    /// Case names only in the new file.
    pub added: Vec<String>,
    /// Case names only in the old file.
    pub removed: Vec<String>,
}

impl DiffReport {
    /// The deltas flagged as regressions.
    pub fn regressions(&self) -> impl Iterator<Item = &CaseDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// The cases that fail `gate`: gated cases that regressed, then
    /// gated cases the new run no longer measures (a deleted case must
    /// not pass the gate by disappearing).
    pub fn gate_failures<'a>(&'a self, gate: &Gate) -> Vec<&'a str> {
        self.regressions()
            .map(|d| d.name.as_str())
            .chain(self.removed.iter().map(String::as_str))
            .filter(|name| gate.covers(name))
            .collect()
    }
}

/// Which cases can fail a diff: every case, or only those whose names
/// start with one of a list of prefixes (the rest are advisory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// Every case gates.
    All,
    /// Only cases matching one of these name prefixes gate.
    Prefixes(Vec<String>),
}

impl Gate {
    /// Parses a comma-separated prefix list (`rsa_sign_,crc32_`).
    pub fn prefixes(list: &str) -> Gate {
        Gate::Prefixes(
            list.split(',')
                .filter(|p| !p.is_empty())
                .map(str::to_string)
                .collect(),
        )
    }

    /// Whether case `name` can fail the diff.
    pub fn covers(&self, name: &str) -> bool {
        match self {
            Gate::All => true,
            Gate::Prefixes(prefixes) => prefixes.iter().any(|p| name.starts_with(p.as_str())),
        }
    }

    /// Checks every prefix against the baseline being compared to.
    ///
    /// # Errors
    ///
    /// Names the first prefix that matches no case of `old`, or an
    /// empty prefix list: either gates nothing, so a typo would
    /// silently turn a blocking check advisory.
    pub fn check_against(&self, old: &Baseline) -> Result<(), String> {
        let Gate::Prefixes(prefixes) = self else {
            return Ok(());
        };
        if prefixes.is_empty() {
            return Err("--gate lists no prefix".to_string());
        }
        match prefixes
            .iter()
            .find(|p| !old.cases.iter().any(|c| c.name.starts_with(p.as_str())))
        {
            Some(p) => Err(format!("gate prefix {p:?} matches no baseline case")),
            None => Ok(()),
        }
    }
}

/// Compares medians case by case. A case regresses when its new median
/// exceeds the old by more than `threshold` (e.g. `0.15` allows 15%
/// slack for run-to-run noise).
pub fn diff(old: &Baseline, new: &Baseline, threshold: f64) -> DiffReport {
    let mut report = DiffReport::default();
    for case in &new.cases {
        match old.case(&case.name) {
            Some(before) => {
                let ratio = if before.median_ns > 0.0 {
                    case.median_ns / before.median_ns
                } else {
                    f64::INFINITY
                };
                report.deltas.push(CaseDelta {
                    name: case.name.clone(),
                    old_median_ns: before.median_ns,
                    new_median_ns: case.median_ns,
                    ratio,
                    regressed: case.median_ns > before.median_ns * (1.0 + threshold),
                });
            }
            None => report.added.push(case.name.clone()),
        }
    }
    for case in &old.cases {
        if new.case(&case.name).is_none() {
            report.removed.push(case.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, median: f64) -> BenchCase {
        BenchCase {
            name: name.to_string(),
            samples: 20,
            median_ns: median,
            p95_ns: median * 1.2,
            p99_ns: median * 1.5,
            throughput_per_sec: 1e9 / median,
        }
    }

    fn baseline(cases: Vec<BenchCase>) -> Baseline {
        Baseline {
            cases,
            ..Baseline::new()
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let before = baseline(vec![
            case("rsa_verify_1024", 1500.0),
            case("zone_query", 80.5),
        ]);
        let text = before.to_json().to_pretty();
        let after = Baseline::parse(&text).expect("parse own output");
        assert_eq!(before, after);
    }

    #[test]
    fn parse_loads_a_machine_without_a_sha256_backend() {
        let mut before = baseline(vec![case("crc32_1mib", 900.0)]);
        before.machine.sha256 = None;
        let text = before.to_json().to_pretty();
        assert!(!text.contains("sha256"), "{text}");
        let after = Baseline::parse(&text).expect("parse older file");
        assert_eq!(after, before);
        assert!(after.machine.to_string().contains("sha256 unrecorded"));
    }

    #[test]
    fn parse_loads_a_machine_without_a_crc32_backend() {
        let mut before = baseline(vec![case("crc32_1mib", 900.0)]);
        before.machine.crc32 = None;
        let text = before.to_json().to_pretty();
        assert!(!text.contains("\"crc32\""), "{text}");
        let after = Baseline::parse(&text).expect("parse older file");
        assert_eq!(after, before);
        assert!(after.machine.to_string().ends_with("crc32 unrecorded"));
    }

    #[test]
    fn machines_on_different_crc32_kernels_differ_by_name() {
        let mut pclmul = Machine::current();
        pclmul.crc32 = Some("pclmul".into());
        let mut portable = pclmul.clone();
        portable.crc32 = Some("portable".into());
        assert_ne!(pclmul, portable);
        assert!(pclmul.to_string().ends_with("crc32 pclmul"), "{pclmul}");
        assert!(
            portable.to_string().ends_with("crc32 portable"),
            "{portable}"
        );
    }

    #[test]
    fn parse_loads_a_machine_without_a_montgomery_backend() {
        let mut before = baseline(vec![case("rsa_sign_1024", 100_000.0)]);
        before.machine.montgomery = None;
        let text = before.to_json().to_pretty();
        assert!(!text.contains("montgomery"), "{text}");
        let after = Baseline::parse(&text).expect("parse older file");
        assert_eq!(after, before);
        assert!(after.machine.to_string().contains("montgomery unrecorded"));
    }

    #[test]
    fn machines_on_different_montgomery_kernels_differ_by_name() {
        let mut adx = Machine::current();
        adx.montgomery = Some("adx".into());
        let mut portable = adx.clone();
        portable.montgomery = Some("portable".into());
        assert_ne!(adx, portable);
        assert!(adx.to_string().contains("montgomery adx"), "{adx}");
        assert!(
            portable.to_string().contains("montgomery portable"),
            "{portable}"
        );
    }

    #[test]
    fn parse_rejects_wrong_schema_version() {
        let mut doc = baseline(vec![]);
        doc.schema_version = SCHEMA_VERSION + 1;
        let err = Baseline::parse(&doc.to_json().to_compact()).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
    }

    #[test]
    fn parse_names_the_missing_field() {
        let err = Baseline::parse(r#"{"schema_version": 1}"#).unwrap_err();
        assert!(err.to_string().contains("machine"), "{err}");
    }

    #[test]
    fn diff_flags_only_regressions_past_the_threshold() {
        let old = baseline(vec![
            case("stable", 100.0),
            case("slower_within_slack", 100.0),
            case("regressed", 100.0),
            case("removed_case", 50.0),
        ]);
        let new = baseline(vec![
            case("stable", 99.0),
            case("slower_within_slack", 110.0),
            case("regressed", 130.0),
            case("added_case", 10.0),
        ]);
        let report = diff(&old, &new, 0.15);
        assert_eq!(
            report.gate_failures(&Gate::All),
            ["regressed", "removed_case"]
        );
        let regressed: Vec<_> = report.regressions().map(|d| d.name.as_str()).collect();
        assert_eq!(regressed, ["regressed"]);
        assert_eq!(report.added, ["added_case"]);
        assert_eq!(report.removed, ["removed_case"]);
        let slack = report
            .deltas
            .iter()
            .find(|d| d.name == "slower_within_slack")
            .unwrap();
        assert!(!slack.regressed);
        assert!((slack.ratio - 1.1).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_duplicate_case_names() {
        let doc = baseline(vec![
            case("rsa_sign_1024", 10.0),
            case("rsa_sign_1024", 99.0),
        ]);
        let err = Baseline::parse(&doc.to_json().to_compact()).unwrap_err();
        assert!(
            err.to_string().contains("duplicate case rsa_sign_1024"),
            "{err}"
        );
    }

    #[test]
    fn removed_gated_case_fails_the_gate() {
        let old = baseline(vec![case("rsa_sign_1024", 100.0), case("tcp_rt", 100.0)]);
        let new = baseline(vec![case("tcp_rt", 100.0)]);
        let report = diff(&old, &new, 0.25);
        assert_eq!(report.regressions().count(), 0, "no shared case regressed");
        assert_eq!(report.gate_failures(&Gate::All), ["rsa_sign_1024"]);
        assert_eq!(
            report.gate_failures(&Gate::prefixes("rsa_")),
            ["rsa_sign_1024"]
        );
        // Outside the gate a missing case stays advisory.
        assert!(report.gate_failures(&Gate::prefixes("tcp_")).is_empty());
    }

    #[test]
    fn gate_failures_cover_only_gated_regressions() {
        let old = baseline(vec![case("rsa_sign_1024", 100.0), case("tcp_rt", 100.0)]);
        let new = baseline(vec![case("rsa_sign_1024", 200.0), case("tcp_rt", 200.0)]);
        let report = diff(&old, &new, 0.25);
        assert_eq!(
            report.gate_failures(&Gate::All),
            ["rsa_sign_1024", "tcp_rt"]
        );
        assert_eq!(report.gate_failures(&Gate::prefixes("tcp_,")), ["tcp_rt"]);
    }

    #[test]
    fn gate_prefix_matching_no_old_case_is_an_error() {
        let old = baseline(vec![case("rsa_sign_1024", 100.0)]);
        assert!(Gate::All.check_against(&old).is_ok());
        assert!(Gate::prefixes("rsa_sign_").check_against(&old).is_ok());
        let err = Gate::prefixes("rsa_sign_,rsa_sgin_")
            .check_against(&old)
            .unwrap_err();
        assert!(err.contains("rsa_sgin_"), "{err}");
        assert!(Gate::prefixes(",").check_against(&old).is_err());
    }

    #[test]
    fn identical_baselines_diff_clean() {
        let base = baseline(vec![case("a", 10.0), case("b", 20.0)]);
        let report = diff(&base, &base.clone(), 0.0);
        assert!(report.gate_failures(&Gate::All).is_empty());
        assert!(report.added.is_empty() && report.removed.is_empty());
        assert_eq!(report.deltas.len(), 2);
    }
}
