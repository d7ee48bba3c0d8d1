(** Multi-domain soak harness with invariant checking for {!Mc_pool}.

    Spawns one worker domain per segment; each runs a randomized add/remove
    mix against the wall clock, optionally cycling its registration
    (churn), then drains the pool to quiescence through blocking removes.
    A concurrent watcher domain polls segment sizes on bounded pools, so
    the capacity bound is checked at every instant, not just after the
    fact. After the run the harness verifies:

    - {b conservation} — every element added (prefill included) was removed
      exactly once and the pool drained to empty;
    - {b segment consistency} — each segment's atomic count equals its
      stored element count and respects the capacity;
    - {b capacity bound} — the watcher never saw a segment above its
      capacity;
    - {b slot lifecycle} — no claimed slots leak across register/deregister
      churn, a fresh registration still succeeds, and the registered-worker
      count returns to zero;
    - {b telemetry agreement} — the merged {!Mc_stats} counters match the
      ground-truth tallies and the pool's own steal counter;
    - {b trace agreement} (with [trace] on) — the {!Mc_trace} event-derived
      per-tag totals (steals, elements stolen, probes, adds, spills, local
      removes, sweeps, every hint counter) exactly match the merged
      {!Mc_stats}, and every park resolved with a wake. The totals are
      drop-proof, so the checks hold even when the rings overflowed.

    Stress/invariant harnesses of this shape (rather than unit tests
    alone) are how concurrent structures with capacity invariants are
    validated in practice; cf. Blelloch & Wei 2020 on bounded concurrent
    allocation and Kułakowski 2015 on concurrent-array validation. *)

type config = {
  domains : int;  (** Worker domains = pool segments. *)
  kind : Mc_pool.kind;
  capacity : int option;  (** Per-segment bound; [None] = unbounded. *)
  workload : Cpool_intf.Workload.t;
      (** The scenario: [mix] is the add probability, [initial] the
          prefill per segment, [duration_s] the mixed-op phase length.
          Must be closed-loop and uniform — the soak harness drives
          workers as fast as the pool allows. *)
  churn : bool;  (** Odd-numbered workers re-register every ~4096 ops. *)
  seed : int;
  trace : bool;  (** Trace every handle and cross-check events vs stats. *)
}

val default : config
(** 4 domains, linear, unbounded, {!Cpool_intf.Workload.default} (50%
    adds, 32 initial per segment, 1 s), churn on, tracing off. *)

val kind_name : Mc_pool.kind -> string

val config_name : config -> string
(** E.g. ["linear/capacity=64"] — the cell label used by the CLI. *)

type report = {
  config : config;
  duration : float;  (** Measured wall-clock of the mixed-op phase + drain. *)
  ops : int;  (** Operation attempts across all workers. *)
  initial_added : int;
  adds_ok : int;
  adds_rejected : int;
  removes_ok : int;  (** Successful removes, drain included. *)
  steals : int;
  per_worker : (string * Mc_stats.t) list;  (** One entry per worker domain. *)
  per_segment : (string * Mc_stats.t) list;
      (** Each segment's ring path counters (owner push/pop, inbox adds
          and drains, CAS retries). *)
  merged : Mc_stats.t;
      (** Pool-wide telemetry: every handle ever issued, prefill included. *)
  traces : Mc_trace.t list;
      (** Every handle's event ring (empty unless [config.trace]); export
          with {!Mc_trace.to_chrome} — the [mc-trace] subcommand's path. *)
  violations : string list;  (** Empty iff every invariant held. *)
}

val run : config -> report
(** [run cfg] executes one soak cell. Raises [Invalid_argument] on a
    nonsensical config (non-positive domains, negative duration,
    out-of-range mix, or a workload that is not closed-loop uniform). *)

val passed : report -> bool
(** [passed r] is [r.violations = []]. *)

val render : report -> string
(** Human-readable report: throughput, the per-domain telemetry table, the
    per-segment ring path table, the pool-wide steal distributions
    (via {!Cpool_metrics.Render}), and the invariant verdicts. *)
