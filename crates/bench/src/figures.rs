//! The paper's evaluation as one table: its tables and figures (Table 1–2,
//! Figs. 2, 6, 8–15), the cost claims and the two ablations are the rows of
//! [`FIGURES`], which `wsc_sim figure <id>...|all` regenerates. A row says
//! what the figure is and which flags it reads; its function builds the
//! configurations at the figure's own defaults, applies the run flags it
//! was handed (the rows of [`FLAGS`](crate::flags::FLAGS) `wsc_sim
//! memcached`/`incast` apply), runs them and returns the rows of
//! `results/<id>.csv`. Parsing, the banner, printing, writing the CSV and
//! reporting errors belong to the caller and exist once.

use crate::flags::{Flag, Options, Scenario};
use diablo_apps::memcached::McVersion;
use diablo_baseline::analytic::incast_goodput_analytic;
use diablo_baseline::run_baseline_incast;
use diablo_core::report::{fmt_f, percentiles_us, tail_cdf_us, Table, PERCENTILES};
use diablo_core::survey::{median_servers, median_switches, sigcomm_survey, workload_counts};
use diablo_core::{
    run, CheckpointPolicy, ExperimentError, IncastClientKind, IncastConfig, McExperimentConfig,
    McExperimentResult, RunMode, SwitchTemplate,
};
use diablo_engine::stats::Histogram;
use diablo_engine::time::SimDuration;
use diablo_fpga::{Device, Generation, RackFpgaDesign, RealArrayCost, SystemPlan};
use diablo_net::link::LinkParams;
use diablo_net::switch::{BufferConfig, SwitchConfig};
use diablo_stack::process::Proto;
use diablo_stack::profile::KernelProfile;

/// What a figure is handed of the figure flags its row declares. `None`
/// and `false` leave a figure's own scaled-down default (EXPERIMENTS.md
/// documents each).
#[derive(Clone, Default)]
pub struct FigOpts {
    /// The run flags given (`--racks`, `--requests`, `--seed`, ...), applied
    /// to every config the figure builds after its own defaults.
    pub run: Vec<(&'static Flag, String)>,
    /// `--full`: the paper's 31-server, 2-memcached racks (16 and 64 of them in Figure 15).
    pub full: bool,
    /// `--fine`: every server count instead of the coarse sweep.
    pub fine: bool,
    /// `--buffer-kb`: per-port switch buffer.
    pub buffer_kb: Option<u32>,
    /// `--clients`: the largest client count of Figure 8.
    pub clients: Option<usize>,
    /// `--reconnect-every`: requests per TCP connection in Figure 15.
    pub reconnect_every: Option<u64>,
    /// `--pipelines`: server pipelines on the rack FPGA.
    pub pipelines: Option<u64>,
    /// `--threads`: hardware threads per pipeline.
    pub threads: Option<u32>,
}

impl FigOpts {
    /// `scenario` with the run flags applied.
    fn apply(&self, mut scenario: Scenario) -> Result<Scenario, ExperimentError> {
        for (flag, value) in &self.run {
            (flag.apply)(&mut scenario, &mut Options::default(), value)
                .map_err(|e| ExperimentError::InvalidConfig(format!("{} {e}", flag.name)))?;
        }
        Ok(scenario)
    }

    /// A memcached config the figure built, with the run flags applied.
    fn mc(&self, cfg: McExperimentConfig) -> Result<McExperimentConfig, ExperimentError> {
        match self.apply(Scenario::Memcached(cfg))? {
            Scenario::Memcached(cfg) => Ok(cfg),
            _ => unreachable!("a flag keeps the scenario's kind"),
        }
    }

    /// An incast config the figure built, with the run flags applied.
    fn incast(&self, cfg: IncastConfig) -> Result<IncastConfig, ExperimentError> {
        match self.apply(Scenario::Incast(cfg))? {
            Scenario::Incast(cfg) => Ok(cfg),
            _ => unreachable!("a flag keeps the scenario's kind"),
        }
    }
}

/// The rows of a figure's CSV, under the columns its [`Figure`] declares.
pub type Rows = Vec<Vec<String>>;

/// One row: each cell as it displays.
macro_rules! row {
    ($($cell:expr),+) => { vec![$($cell.to_string()),+] };
}

/// What a figure's function returns.
#[derive(Debug, Default)]
pub struct Output {
    /// The rows of `results/<id>.csv`.
    pub rows: Rows,
    /// Printed in place of the CSV rows: a CDF's percentiles, a table with wall times.
    pub summary: Option<Table>,
    /// Measured lines to print under the table.
    pub note: String,
}

/// One table or figure of the paper.
pub struct Figure {
    /// What `wsc_sim figure` calls it; its CSV is `results/<id>.csv`.
    pub id: &'static str,
    /// The banner line.
    pub title: &'static str,
    /// The CSV's header line.
    pub columns: &'static str,
    /// The figure flags it reads; any other is an error.
    pub flags: &'static [&'static str],
    /// The shape the paper reports, to read the output against.
    pub shape: &'static str,
    /// Builds the configurations, runs them and returns the CSV's rows.
    pub run: fn(&FigOpts) -> Result<Output, ExperimentError>,
}

impl Figure {
    /// `rows` under the declared header: the table `results/<id>.csv` holds.
    pub fn csv(&self, rows: Rows) -> Table {
        Table::new(self.columns.split(',').collect()).rows(rows)
    }
}

/// Every regenerated artifact, in the order `figure all` runs them.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "tab01_survey",
        title: "Table 1: workload types in recent SIGCOMM datacenter papers",
        columns: "Types,Microbenchmark,Trace,Application",
        flags: &[],
        shape: "paper: 16 / 3 / 2",
        run: tab01,
    },
    Figure {
        id: "fig02_testbeds",
        title: "Figure 2: size of physical testbeds in SIGCOMM papers, 2008-2013",
        columns: "year,servers,switches,workload",
        flags: &[],
        shape: "paper: median 16 servers, 6 switches (a reconstructed dataset with those medians)",
        run: fig02,
    },
    Figure {
        id: "tab02_fpga_resources",
        title: "Table 2: Rack FPGA resource utilization (Virtex-5 LX155T)",
        columns: "Component Name,LUT,Register,BRAM,LUTRAM",
        flags: &["--pipelines", "--threads"],
        shape: "paper: 95% of slices at 90 MHz",
        run: tab02,
    },
    Figure {
        id: "cost_model",
        title: "Cost model (§1, §3.4): DIABLO vs building the real array",
        columns: "system,servers,boards,rack FPGAs,switch FPGAs,DRAM GiB,cost $,power W,real CAPEX $,capex ratio",
        flags: &[],
        shape: "paper: 9-board prototype ~$140K; 32k-node projection ~$150K; real $36M + $800K/month",
        run: cost_model,
    },
    Figure {
        id: "fig06a_incast_1g",
        title: "Figure 6(a): TCP incast goodput, 1 Gbps shallow-buffer switch",
        columns: "servers,diablo_mbps,ns2like_mbps,analytic_mbps,diablo_drops",
        flags: &["--iterations", "--block", "--fine"],
        shape: "paper shape: ~800 Mbps pre-collapse, collapse by ~4-8 servers, mild recovery",
        run: fig06a,
    },
    Figure {
        id: "fig06b_incast_10g",
        title: "Figure 6(b): incast goodput, 10 Gbps fabric, CPU x client-structure sweep",
        columns: "servers,4GHz-pthread,4GHz-epoll,2GHz-pthread,2GHz-epoll",
        flags: &["--iterations", "--buffer-kb", "--fine"],
        shape: "paper shape: 2 GHz pthread plateaus ~1.8 Gbps; epoll delays collapse; collapsed \
                goodput decouples from CPU speed",
        run: fig06b,
    },
    Figure {
        id: "fig08_memcached_rack",
        title: "Figure 8: single-rack memcached, throughput and latency vs clients",
        columns: "clients,tput_4w_ops,lat_4w_us,tput_8w_ops,lat_8w_us",
        flags: &["--requests", "--clients", "--seed"],
        shape: "paper shape: throughput saturates with clients; latency linear then explodes",
        run: fig08,
    },
    Figure {
        id: "fig09_version_cdf_120",
        title: "Figure 9: latency CDF at ~120 nodes, memcached 1.4.15 vs 1.4.17",
        columns: "version,latency_us,cum_frac",
        flags: &["--racks", "--requests", "--spr"],
        shape: "paper shape: <0.1% of requests far past the median; 1.4.17 slightly ahead of 1.4.15",
        run: |o| fig09(o)?.run(),
    },
    Figure {
        id: "fig10_hop_pmf",
        title: "Figure 10: latency PMF by hop count, UDP, 1 vs 10 Gbps",
        columns: "link,class,latency_us,fraction",
        flags: MC_FLAGS,
        shape: "paper shape: most <100us, a few 100x slower; more hops = more variance; 2-hop dominates",
        run: fig10,
    },
    Figure {
        id: "fig11_scale_tail",
        title: "Figure 11: 95th-100th percentile latency CDF vs scale (1 Gbps, UDP)",
        columns: "racks,nodes,latency_us,cum_frac",
        flags: MC_FLAGS_FIXED_RACKS,
        shape: "paper shape: p99 at the largest scale an order of magnitude above the smallest",
        run: |o| fig11(o)?.run(),
    },
    Figure {
        id: "fig12_switch_latency",
        title: "Figure 12: latency tail vs extra switch latency (+0/+50/+100 ns, 10 Gbps)",
        columns: "extra_ns,latency_us,cum_frac",
        flags: MC_FLAGS,
        shape: "paper shape: tail shape unchanged; p99 rises moderately; non-tail untaxed",
        run: |o| fig12(o)?.run(),
    },
    Figure {
        id: "fig13_tcp_vs_udp",
        title: "Figure 13: TCP vs UDP latency CDFs across scale and interconnect",
        columns: "panel,proto,latency_us,cum_frac",
        flags: MC_FLAGS_FIXED_RACKS,
        shape: "paper shape: 1G small scale favours UDP, largest favours TCP (the conclusion \
                reverses with scale); 10G shows little difference",
        run: |o| fig13(o)?.run(),
    },
    Figure {
        id: "fig14_kernel",
        title: "Figure 14: guest kernel version (2.6.39.3 vs 3.5.7) at scale (10 Gbps)",
        columns: "kernel,latency_us,cum_frac",
        flags: MC_FLAGS,
        shape: "paper shape: the newer kernel roughly halves average latency and thins the tail",
        run: |o| fig14(o)?.run(),
    },
    Figure {
        id: "fig15_memcached_version",
        title: "Figure 15: memcached 1.4.15 vs 1.4.17 at two scales (TCP, connection churn)",
        columns: "scale,version,latency_us,cum_frac",
        flags: &[
            "--requests",
            "--full",
            "--spr",
            "--mc-per-rack",
            "--workers",
            "--seed",
            "--reconnect-every",
        ],
        shape: "paper shape: negligible delta at small scale; clear 1.4.17 advantage at scale",
        run: |o| fig15(o)?.run(),
    },
    Figure {
        id: "ablation_quantum",
        title: "Ablation: parallel partitions and quantum vs wall-clock (results identical)",
        columns: "mode,quantum_ns,events,identical",
        flags: &["--racks", "--requests"],
        shape: "Explicit quanta below the cut's lookahead (which RunMode::parallel derives) add \
                barrier rounds; every configuration produces bit-identical results.",
        run: ablation_quantum,
    },
    Figure {
        id: "ablation_buffers",
        title: "Ablation: switch buffer organization and size under 8-server incast",
        columns: "organization,bytes,goodput_mbps,drops",
        flags: &["--servers", "--iterations"],
        shape: "A shared pool absorbs the synchronized burst that per-port partitions drop: the \
                difference behind DIABLO's faster-than-hardware collapse in Figure 6(a).",
        run: ablation_buffers,
    },
];

fn tab01(_: &FigOpts) -> Result<Output, ExperimentError> {
    let (micro, trace, app) = workload_counts(&sigcomm_survey());
    Ok(Output { rows: vec![row!["Number of Papers", micro, trace, app]], ..Output::default() })
}

fn fig02(_: &FigOpts) -> Result<Output, ExperimentError> {
    let entries = sigcomm_survey();
    let rows = entries.iter().map(|e| row![e.year, e.servers, e.switches, e.workload]).collect();
    let (servers, switches) = (median_servers(&entries), median_switches(&entries));
    let note = format!("median servers = {servers}, median switches = {switches}");
    Ok(Output { rows, note, ..Output::default() })
}

/// Regenerated from the parametric FAME resource model.
fn tab02(o: &FigOpts) -> Result<Output, ExperimentError> {
    let design =
        RackFpgaDesign { pipelines: o.pipelines.unwrap_or(4), threads: o.threads.unwrap_or(32) };
    let (device, total) = (Device::virtex5_lx155t(), design.total());
    let rows = design.rows().into_iter().chain([("Total", total)]);
    let rows = rows.map(|(name, r)| row![name, r.lut, r.reg, r.bram, r.lutram]).collect();
    let (servers, racks, fits) = (design.servers(), design.racks(), device.fits(total));
    let note = format!(
        "simulates {servers} servers in {racks} racks; slice occupancy {:.1}%; fits on {}: {fits}",
        device.slice_occupancy(total) * 100.0,
        device.name
    );
    Ok(Output { rows, note, ..Output::default() })
}

/// The 3,000-node BEE3 prototype and the projected 32,000-node system
/// against the CAPEX and OPEX of the real array they substitute for.
fn cost_model(_: &FigOpts) -> Result<Output, ExperimentError> {
    let real = RealArrayCost::default();
    let row = |p: SystemPlan| {
        let name = match p.generation {
            Generation::Bee3 => "BEE3 prototype",
            Generation::Modern2015 => "2015 projection",
        };
        let mut row = row![name, p.target_servers, p.boards, p.rack_fpgas, p.switch_fpgas];
        let capex = [real.capex(p.target_servers), real.capex_ratio(&p)].map(|v| fmt_f(v, 0));
        row.extend(row![p.dram_gib, p.cost_usd, p.power_w, capex[0], capex[1]]);
        row
    };
    let rows = [SystemPlan::prototype_3000(), SystemPlan::projected_32000()].map(row).into();
    let note =
        format!("real-array OPEX at 2,976 servers: ${:.0}/month", real.opex_per_month(2_976));
    Ok(Output { rows, note, ..Output::default() })
}

fn fig06a(o: &FigOpts) -> Result<Output, ExperimentError> {
    let servers = if o.fine { (1..=24).collect() } else { vec![1, 2, 3, 4, 6, 8, 12, 16, 20, 24] };
    let mut rows = Rows::new();
    for n in servers {
        let mut cfg = IncastConfig::fig6a(n);
        cfg.iterations = 5;
        let cfg = o.incast(cfg)?;
        let (iterations, block) = (cfg.iterations, cfg.block_bytes);
        let diablo = run(&cfg, &CheckpointPolicy::default())?;
        let sw = SwitchConfig::shallow_gbe("tor", (n + 2) as u16);
        let ns2 = run_baseline_incast(n, iterations, block as u64, sw, LinkParams::gbe(500));
        let analytic =
            incast_goodput_analytic(1e9, block as f64, 4096.0, n, 10.0 * 1460.0, 0.2, 200e-6) / 1e6;
        let mbps = [diablo.goodput_mbps, ns2, analytic].map(|mbps| fmt_f(mbps, 1));
        rows.push(row![n, mbps[0], mbps[1], mbps[2], diablo.switch_drops]);
    }
    Ok(Output { rows, ..Output::default() })
}

/// {4 GHz, 2 GHz} CPU x {pthread, epoll} client, one column each.
fn fig06b(o: &FigOpts) -> Result<Output, ExperimentError> {
    // The 10 GbE fabric carries a deeper buffer than the GbE shallow
    // switch's 64 KB/port: the paper's Figure 6(b) collapse is partial
    // (Gbps-scale), i.e. fast-retransmit-bound, not RTO-bound.
    let bytes_per_port = o.buffer_kb.unwrap_or(256) * 1024;
    let servers = if o.fine { (1..=23).collect() } else { vec![1, 2, 4, 6, 9, 12, 16, 20, 23] };
    let mut rows = Rows::new();
    for n in servers {
        let mut row = row![n];
        for ghz in [4, 2] {
            for kind in [IncastClientKind::Pthread, IncastClientKind::Epoll] {
                let mut cfg = IncastConfig::fig6b(n, ghz, kind);
                cfg.iterations = 10;
                let buffer = BufferConfig::PerPort { bytes_per_port };
                cfg.switch = Some(SwitchTemplate { buffer, ..SwitchTemplate::ten_gbe_fast() });
                let r = run(&o.incast(cfg)?, &CheckpointPolicy::default())?;
                row.push(fmt_f(r.goodput_mbps, 1));
            }
        }
        rows.push(row);
    }
    Ok(Output { rows, ..Output::default() })
}

/// Per-port against a shared pool of the same total size (DESIGN.md
/// decision #5), over the size sweep behind the DIABLO-vs-hardware gap
/// in Figure 6(a).
fn ablation_buffers(o: &FigOpts) -> Result<Output, ExperimentError> {
    let mut base = IncastConfig::fig6a(8);
    base.iterations = 4;
    let base = o.incast(base)?;
    let mut rows = Rows::new();
    for kb in [4u32, 16, 64, 256] {
        // A shared pool the size of all ports' dedicated buffers.
        let pool_kb = kb * (base.servers as u32 + 1);
        for (organization, kb, buffer) in [
            ("per-port", kb, BufferConfig::PerPort { bytes_per_port: kb * 1024 }),
            ("shared pool", pool_kb, BufferConfig::Shared { total_bytes: pool_kb * 1024 }),
        ] {
            let mut cfg = base.clone();
            cfg.switch = Some(SwitchTemplate { buffer, ..SwitchTemplate::gbe_shallow() });
            let r = run(&cfg, &CheckpointPolicy::default())?;
            let mbps = fmt_f(r.goodput_mbps, 1);
            rows.push(row![organization, format!("{kb}K"), mbps, r.switch_drops]);
        }
    }
    Ok(Output { rows, ..Output::default() })
}

/// The flags the [`at_scale`] memcached figures read.
const MC_FLAGS: &[&str] =
    &["--racks", "--requests", "--full", "--spr", "--mc-per-rack", "--workers", "--seed"];

/// [`MC_FLAGS`] without `--racks`, for the figures whose rack counts are
/// the thing they compare.
const MC_FLAGS_FIXED_RACKS: &[&str] = MC_FLAGS.split_at(1).1;

/// The paper's one, two and four arrays (its 500/1000/2000-node family):
/// scaled-down racks keep exactly that array structure, which is what
/// drives the tail growth.
const SCALES: [usize; 3] = [16, 32, 64];

/// An at-scale memcached configuration at the figure's rack count and
/// requests per client: the paper's racks under `--full`, mini ones
/// otherwise.
fn at_scale(o: &FigOpts, racks: usize, requests: u64) -> McExperimentConfig {
    if o.full {
        McExperimentConfig::paper(racks, requests)
    } else {
        McExperimentConfig::mini(racks, requests)
    }
}

/// Nanoseconds as microseconds, to the CSVs' one decimal.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
}

/// A tail-CDF figure (9, 11-15) before it runs: one memcached run per
/// series, each tabulated as the CSV's CDF points from quantile `from` up
/// and a printed row of percentiles.
struct Tails {
    /// The columns that tell the series apart.
    key: &'static [&'static str],
    from: f64,
    /// Each series' key cells and config, the run flags applied.
    series: Vec<(Vec<String>, McExperimentConfig)>,
    /// The measured line printed under the table, from the series' latencies.
    note: fn(&[Histogram]) -> String,
}

impl Tails {
    fn new(key: &'static [&'static str], from: f64) -> Tails {
        Tails { key, from, series: Vec::new(), note: |_| String::new() }
    }

    fn run(self) -> Result<Output, ExperimentError> {
        let percentiles = PERCENTILES.iter().map(|(name, _)| format!("{name}_us"));
        let header = self.key.iter().map(|k| k.to_string()).chain(percentiles).collect();
        let (mut rows, mut summary, mut latencies) = (Rows::new(), Table::new(header), Vec::new());
        for (key, cfg) in self.series {
            let latency = run(&cfg, &CheckpointPolicy::default())?.latency;
            for (us, q) in tail_cdf_us(&latency, self.from) {
                rows.push([&key[..], &[format!("{us:.1}"), format!("{q:.5}")]].concat());
            }
            let percentiles =
                percentiles_us(&latency).into_iter().map(|(_, us)| format!("{us:.1}"));
            summary.row(key.into_iter().chain(percentiles).collect());
            latencies.push(latency);
        }
        Ok(Output { rows, summary: Some(summary), note: (self.note)(&latencies) })
    }
}

/// (a) server throughput and (b) mean client latency, 4 and 8 workers.
fn fig08(o: &FigOpts) -> Result<Output, ExperimentError> {
    let max_clients = o.clients.unwrap_or(14);
    let mut rows = Rows::new();
    for clients in (1..=max_clients).step_by(if max_clients > 8 { 2 } else { 1 }) {
        let mut row = row![clients];
        for workers in [4, 8] {
            let mut cfg = McExperimentConfig::mini(1, 150);
            cfg.servers_per_rack = clients + 1;
            cfg.mc_per_rack = 1;
            cfg.workers = workers;
            cfg.proto = Proto::Tcp;
            cfg.seed = 7;
            // Heavier per-request service cost so saturation appears within
            // the paper's 1..14-client sweep (~15 us of logic at 4 GHz).
            cfg.request_work = 60_000;
            let r = run(&o.mc(cfg)?, &CheckpointPolicy::default())?;
            row.push(fmt_f(r.served as f64 / r.completed_at.as_secs_f64().max(1e-9), 0));
            row.push(fmt_f(r.latency.mean() / 1e3, 1));
        }
        rows.push(row);
    }
    Ok(Output { rows, ..Output::default() })
}

fn fig09(o: &FigOpts) -> Result<Tails, ExperimentError> {
    let mut tails = Tails::new(&["version"], 0.98);
    for version in [McVersion::V1_4_15, McVersion::V1_4_17] {
        // 8 racks x 15 nodes = 120 nodes, like the paper's validation cluster.
        let mut cfg = McExperimentConfig::mini(8, 150);
        cfg.servers_per_rack = 15;
        cfg.mc_per_rack = 2;
        cfg.version = version;
        cfg.proto = Proto::Tcp;
        tails.series.push((row![version.as_str()], o.mc(cfg)?));
    }
    Ok(tails)
}

/// Requests classified by the switch levels they cross (local / 1-hop /
/// 2-hop), one PMF per class and interconnect.
fn fig10(o: &FigOpts) -> Result<Output, ExperimentError> {
    let mut rows = Rows::new();
    let mut summary = Table::new(vec!["link", "class", "n", "p50_us", "p99_us", "max_us"]);
    for (link, ten_gig) in [("1Gbps", false), ("10Gbps", true)] {
        // 36 mini-racks over 3 arrays, so all three hop classes exist.
        let mut cfg = at_scale(o, 36, 120);
        cfg.proto = Proto::Udp;
        cfg.ten_gig = ten_gig;
        let r = run(&o.mc(cfg)?, &CheckpointPolicy::default())?;
        let classes = ["local", "1-hop", "2-hop"].into_iter().zip(&r.by_class);
        for (class, hist) in classes.chain([("overall", &r.latency)]) {
            let (p50, p99) = (us(hist.quantile(0.5)), us(hist.quantile(0.99)));
            summary.row(row![link, class, hist.count(), p50, p99, us(hist.max())]);
            if class == "overall" || hist.is_empty() {
                continue;
            }
            for (ns, frac) in hist.log_pmf(1_000, 10_000_000_000, 5) {
                if frac > 0.0 {
                    rows.push(row![link, class, us(ns), format!("{frac:.6}")]);
                }
            }
        }
    }
    Ok(Output { rows, summary: Some(summary), ..Output::default() })
}

fn fig11(o: &FigOpts) -> Result<Tails, ExperimentError> {
    let mut tails = Tails::new(&["racks", "nodes"], 0.95);
    for racks in SCALES {
        let mut cfg = at_scale(o, racks, 150);
        cfg.proto = Proto::Udp;
        let cfg = o.mc(cfg)?;
        tails.series.push((row![racks, cfg.nodes()], cfg));
    }
    Ok(tails)
}

/// Extra port-to-port latency at every switch level.
fn fig12(o: &FigOpts) -> Result<Tails, ExperimentError> {
    let mut tails = Tails::new(&["extra_ns"], 0.96);
    for extra_ns in [0u64, 50, 100] {
        let mut cfg = at_scale(o, 32, 400);
        cfg.proto = Proto::Udp;
        cfg.ten_gig = true;
        cfg.extra_switch_latency = SimDuration::from_nanos(extra_ns);
        tails.series.push((row![extra_ns], o.mc(cfg)?));
    }
    Ok(tails)
}

/// Panels (a-f): three scales on both interconnects, each protocol.
fn fig13(o: &FigOpts) -> Result<Tails, ExperimentError> {
    let mut tails = Tails::new(&["panel", "proto"], 0.97);
    for (gbps, ten_gig) in [("1G", false), ("10G", true)] {
        for racks in SCALES {
            for (label, proto) in [("UDP", Proto::Udp), ("TCP", Proto::Tcp)] {
                let mut cfg = at_scale(o, racks, 150);
                cfg.proto = proto;
                cfg.ten_gig = ten_gig;
                tails.series.push((row![format!("{racks}racks-{gbps}"), label], o.mc(cfg)?));
            }
        }
    }
    Ok(tails)
}

fn fig14(o: &FigOpts) -> Result<Tails, ExperimentError> {
    let mut tails = Tails::new(&["kernel"], 0.95);
    for kernel in [KernelProfile::linux_2_6_39(), KernelProfile::linux_3_5_7()] {
        let mut cfg = at_scale(o, 32, 120);
        cfg.proto = Proto::Udp;
        cfg.ten_gig = true;
        cfg.kernel = kernel;
        tails.series.push((row![cfg.kernel.name], o.mc(cfg)?));
    }
    // The far tail is retry-dominated and identical under both kernels, so
    // the median carries the effect.
    tails.note = |latency| {
        let (old, new) = (&latency[0], &latency[1]);
        let medians = old.quantile(0.5) as f64 / new.quantile(0.5) as f64;
        let (old, new) = (old.mean() / 1e3, new.mean() / 1e3);
        format!("median old/new = {medians:.2}; mean {old:.1} us vs {new:.1} us")
    };
    Ok(tails)
}

/// `accept` + `fcntl` against `accept4`, over TCP where connection setup
/// matters.
fn fig15(o: &FigOpts) -> Result<Tails, ExperimentError> {
    let mut tails = Tails::new(&["racks", "version"], 0.97);
    for racks in if o.full { [16, 64] } else { [4, 16] } {
        for version in [McVersion::V1_4_15, McVersion::V1_4_17] {
            let mut cfg = at_scale(o, racks, 300);
            cfg.proto = Proto::Tcp;
            cfg.version = version;
            // Connection churn keeps the accept path on the measurement
            // path: clients re-open a connection every few requests.
            cfg.reconnect_every = Some(o.reconnect_every.unwrap_or(5));
            tails.series.push((row![racks, version.as_str()], o.mc(cfg)?));
        }
    }
    Ok(tails)
}

/// Partitions and synchronization quantum against serial execution
/// (DESIGN.md decision #4, mirroring DIABLO's multi-FPGA synchronization).
/// Wall times are printed, not stored: the CSV is reproducible.
fn ablation_quantum(o: &FigOpts) -> Result<Output, ExperimentError> {
    let mut base = McExperimentConfig::mini(8, 60);
    base.proto = Proto::Udp;
    let base = o.mc(base)?;
    let serial = run(&base, &CheckpointPolicy::default())?;
    let mut rows = vec![row!["serial", "-", serial.events, "-"]];
    let mut walls = vec![serial.wall];
    let result = |r: &McExperimentResult| (r.events, r.served, r.latency.quantile(0.99));
    // Explicit undersized quanta: legal (any quantum at or below the cut's
    // lookahead is safe) but slower, which is what this ablation shows.
    for partitions in [2usize, 4] {
        for quantum_ns in [100u64, 250, 500] {
            let mut cfg = base.clone();
            let quantum = Some(SimDuration::from_nanos(quantum_ns));
            cfg.mode = RunMode::Parallel { partitions, quantum, workers: None };
            let r = run(&cfg, &CheckpointPolicy::default())?;
            assert_eq!(result(&r), result(&serial), "x{partitions} at {quantum_ns} ns diverged");
            rows.push(row![format!("parallel x{partitions}"), quantum_ns, r.events, "yes"]);
            walls.push(r.wall);
        }
    }
    let mut summary = Table::new(vec!["mode", "quantum_ns", "events", "identical", "wall_s"]);
    for (row, wall) in rows.iter().zip(walls) {
        summary.row([&row[..], &[fmt_f(wall.as_secs_f64(), 3)]].concat());
    }
    Ok(Output { rows, summary: Some(summary), ..Output::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::{fig_opts, given};

    /// What `figure <id> <args>` hands the figure.
    fn opts(args: &[&str]) -> FigOpts {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        fig_opts(&given("figure", &args).expect("figure flags")).expect("flag values")
    }

    /// `--full` picks the paper's racks, and the run flags a figure
    /// declares still shape them.
    #[test]
    fn a_full_scale_figure_builds_the_racks_its_flags_ask_for() {
        let shapes = |tails: Tails| {
            tails.series.iter().map(|(_, c)| (c.racks, c.servers_per_rack, c.mc_per_rack)).collect()
        };
        let o = opts(&["--full", "--spr", "8", "--mc-per-rack", "3", "--workers", "2"]);
        let tails = fig15(&o).expect("fig15");
        assert!(tails.series.iter().all(|(_, c)| c.workers == 2));
        let got: Vec<_> = shapes(tails);
        assert_eq!(got, [(16, 8, 3), (16, 8, 3), (64, 8, 3), (64, 8, 3)]);
        let got: Vec<_> = shapes(fig11(&opts(&["--full", "--spr", "12"])).expect("fig11"));
        assert_eq!(got, [(16, 12, 2), (32, 12, 2), (64, 12, 2)]);
        // Without flags, the paper's 31-server racks with 2 memcached servers.
        let got: Vec<_> = shapes(fig14(&opts(&["--full"])).expect("fig14"));
        assert_eq!(got, [(32, 31, 2), (32, 31, 2)]);
    }
}
