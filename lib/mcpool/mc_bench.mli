(** Fixed-duration throughput benchmark for {!Mc_pool}.

    Runs a grid of cells — search kind × domain count × operation mix —
    each a wall-clock-bounded randomized add/remove workload with one
    worker domain per segment. The two mixes follow the
    paper's regimes: {e sufficient} (> 50% adds, prefilled, removes almost
    always hit the owner's own segment — non-blocking removes) and
    {e sparse} (< 50% adds, the pool runs dry and steal traffic dominates —
    {e blocking} removes, so what a searcher does about an empty pool,
    spin-searching vs parking on the [Hinted] hint board, is part of the
    measurement).

    Reported per cell: throughput (ops/sec), sampled per-op latency (p50
    and p99, in µs — every 8th batch of 16 operations is timed as a group,
    so sub-µs operations still resolve and a slow steal or lock inside the
    window surfaces in the tail), the segments' owner ring-op counter, and
    the batched-steal profile. Results serialize to JSON
    ({!to_json}) for the committed [BENCH_mcpool.json] artifact. *)

type config = {
  kinds : Mc_pool.kind list;
  domain_counts : int list;
  workloads : Cpool_intf.Workload.t list;
      (** Closed-loop scenarios, one grid row per entry. [mix] is the add
          probability, [initial] the prefill per segment, [duration_s] the
          wall-clock length of the cell's mixed-op phase.
          {!Cpool_intf.Workload.sufficient} and
          {!Cpool_intf.Workload.sparse} are the paper's two regimes. *)
  capacity : int option;  (** Per-segment bound; [None] = unbounded. *)
  seed : int;
  trace : bool;
      (** Give every worker an {!Mc_trace} event ring (adds a per-event
          timestamp cost; off for the committed throughput numbers). *)
  topo_of : (int -> (Cpool_topology.t, string) result) option;
      (** Resolve a domain count to the locality model for that column of
          the grid (the [two-group] preset scales with the count; a config
          file only matches its own). When set, the topology cells run
          {e in addition to} the plain grid: every (kind, domains, mix)
          once topology-aware and once as the distance-oblivious twin, all
          into one artifact. *)
}

val default : config
(** Linear kind, 2 and 8 domains, both canonical workloads (sufficient
    and sparse, 1 s cells), unbounded, seed 42, tracing off, no
    topology. *)

type cell = {
  kind : Mc_pool.kind;
  domains : int;
  workload : Cpool_intf.Workload.t;
  topo : Cpool_topology.t option;
      (** Home segment [i] on topology node [i] and emulate remote
          latency; [None] for the plain grid cells. *)
  aware : bool;
      (** Meaningful only with [topo]: [false] is the distance-oblivious
          twin (same emulated machine, distance-blind probe order). *)
}

type result = {
  cell : cell;
  duration : float;  (** Measured wall-clock of the mixed-op phase. *)
  ops : int;  (** Operation attempts across all workers (throughput numerator). *)
  ops_attempted : int;
      (** [ops] plus the prefill's add attempts — the full population of
          operations that can note a ring op, so
          [fast_ops <= ops_attempted] always holds (the seed artifact
          compared [fast_ops] against [ops] alone and shipped a cell with
          [fast_ops > ops]). *)
  ops_per_sec : float;
  adds_ok : int;
  removes_ok : int;
  p50_us : float;  (** Median sampled per-op latency, µs; [nan] if none. *)
  p99_us : float;  (** 99th-percentile sampled per-op latency, µs. *)
  fast_ops : int;  (** Owner ring pushes + pops ({!Mc_stats.fast_path_ops}). *)
  steals : int;
  batched_steals : int;  (** Steals that moved >= 2 elements in one claim. *)
  mean_batch : float;  (** Mean elements per steal batch; [nan] if no steals. *)
  hints_published : int;  (** Hints published by parking searchers ([Hinted]). *)
  hints_claimed : int;  (** Hints CAS-claimed by adders. *)
  hints_delivered : int;  (** Claims whose element landed in the parked searcher's segment. *)
  hints_expired : int;  (** Hints retracted unclaimed (backoff or quiescence). *)
  near_steals : int;  (** Steals from the thief's own locality group. *)
  far_steals : int;  (** Steals across groups; [near + far = steals] with a topology. *)
  near_probes : int;
  far_probes : int;
  mean_near_batch : float;  (** Mean elements per near steal; [nan] if none. *)
  mean_far_batch : float;  (** Mean elements per far steal; [nan] if none. *)
  traces : Mc_trace.t list;  (** Per-handle event rings; empty unless traced. *)
}

val run_cell :
  ?seconds:float -> ?capacity:int option -> ?seed:int -> ?trace:bool -> cell -> result
(** Run one cell. [seconds] overrides the workload's [duration_s];
    [capacity = None], [seed = 42], [trace = false]. Raises
    [Invalid_argument] on non-positive [domains] or [seconds], or a
    workload that is not closed-loop. *)

val run : config -> result list
(** Run the whole grid, then any topology cells, in a deterministic
    order. *)

val render : result list -> string
(** Human-readable table of every cell plus, for each Hinted cell whose
    Linear twin is present, the hinted-over-linear speedup. Topology cells additionally get a near/far
    telemetry table and, twin permitting, the aware-over-oblivious
    speedup. *)

val to_json : config -> result list -> Cpool_util.Json.t
(** The JSON document written to [BENCH_mcpool.json]: benchmark metadata
    (grid, duration, capacity, seed) and one object per cell. *)

val to_chrome : result list -> Cpool_util.Json.t
(** Chrome trace-event JSON of a traced run: one Chrome process per cell
    (named by its cell label), one track per worker domain — the
    [mc-throughput --trace] output. Meaningful only when the cells ran
    with [trace]. *)

val validate_json : Cpool_util.Json.t -> (int, string) Stdlib.result
(** Structural check of a parsed benchmark document (the [json-check]
    subcommand): returns the number of cells, or a description of the
    first malformed field. Beyond field presence it enforces the
    counter-accounting identities [fast_ops <= ops_attempted] and
    [ops <= ops_attempted] per cell, so a self-contradictory artifact fails the check. Cells
    carrying a ["topology"] field must also carry a boolean
    ["topology_aware"], numeric near/far probe and steal counters, and
    satisfy [near_steals + far_steals = steals] exactly. *)
