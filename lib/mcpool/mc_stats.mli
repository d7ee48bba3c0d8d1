(** Per-worker telemetry for the multicore pool.

    Each {!Mc_pool.handle} owns one [Mc_stats.t] and bumps plain mutable
    counters on the hot path — no atomics, no cross-domain sharing, so the
    instrumentation costs a handful of unshared stores per operation. The
    read side ({!merge}, {!counters}, the samples) converts snapshots into
    {!Cpool_metrics} values on demand, giving the real pool the same steal
    statistics the paper reports for the simulator: steal frequency,
    segments examined per steal, elements stolen per steal.

    Reading another domain's live stats is safe (all fields are word-sized)
    but yields a racy snapshot; merge after the workers have quiesced for
    exact totals. Per-steal distributions are bucketed exactly up to
    {!bucket_limit} and clamp above it — the means come from exact running
    totals and are never clamped. *)

type t

val bucket_limit : int
(** Largest per-steal observation recorded exactly in the distributions
    (larger values clamp into the top bucket). *)

val create : unit -> t

(** {2 Hot-path recording (called by [Mc_pool])} *)

val note_add : t -> unit
(** A successful add into the worker's own segment. *)

val note_spill : t -> unit
(** A successful add that spilled to another segment (bounded pools). *)

val note_add_fail : t -> unit
(** An add rejected because every segment was full. *)

val note_local_remove : t -> unit
(** A successful remove from the worker's own segment. *)

val note_probe : t -> unit
(** One remote segment examined during a steal search. *)

val note_steal : t -> probes:int -> elements:int -> unit
(** A successful steal that examined [probes] segments since the hunt
    began and obtained [elements] elements (the returned one plus the
    banked remainder). *)

val note_sweep : t -> unit
(** One full confirmation sweep over every segment. *)

val note_empty_confirm : t -> unit
(** A blocking remove that concluded the pool empty. *)

val note_spin : t -> unit
(** One polite retry ([Domain.cpu_relax] or a parked sleep) while waiting
    for quiescence or a hint delivery. *)

(** {2 Hint-board counters (the [Hinted] kind)}

    Published and expired are bumped only by the parking searcher's own
    handle; claimed and delivered only by the claiming adder's handle. At
    quiescence [published = claimed + expired] (every hint is eventually
    claimed by an adder or retracted by its searcher), and
    [delivered <= claimed] (a claim against a full bounded segment aborts
    the delivery). *)

val note_hint_published : t -> unit
(** A searcher that swept every segment empty published a hint and parked. *)

val note_hint_claimed : t -> unit
(** An adder CAS-claimed a published hint. *)

val note_hint_delivered : t -> unit
(** A claimed hint's element landed in the parked searcher's segment. *)

val note_hint_expired : t -> unit
(** A searcher retracted its own hint unclaimed (backoff round, local work
    arrived, or quiescence confirmation). *)

(** {2 Segment-side path counters (called by [Mc_segment])}

    These record which protocol path each ring operation took, making the
    lock-free protocol observable rather than asserted. Push/pop and the
    drain counters are bumped only by the segment's owner domain (plain
    stores); inbox adds and the CAS-retry counters are bumped by whichever
    domain performed the operation and are backed by real atomics, so the
    lock-free spill and steal paths can report without a serialization
    point to hide behind. *)

val note_fast_push : t -> unit
(** An owner push (or batch) into the ring, published with one atomic add
    on [bottom]. Counted under the label ["fast-path pushes"]. *)

val note_fast_pop : t -> unit
(** A successful owner pop, committed with one CAS on [top]. Counted under
    the label ["fast-path pops"]. *)

val note_inbox_add : t -> unit
(** A foreign (spill) add CAS-pushed onto the segment's MPSC inbox.
    Atomic: any domain may spill. *)

val note_top_cas_retry : t -> unit
(** A failed CAS claim of the ring's [top] cursor (contended pop or steal);
    the operation retried. Atomic: owner and stealers race on it. *)

val note_mpsc_retry : t -> unit
(** A failed CAS on the MPSC inbox stack (push or steal-pop); the operation
    retried. Atomic: any domain. *)

val note_inbox_drain : t -> elements:int -> unit
(** The owner swapped the whole inbox stack into the ring in one exchange,
    moving [elements] elements. Owner-only. *)

val note_steal_batch : t -> int -> unit
(** [note_steal_batch s n] records one steal transfer that moved [n >= 1]
    elements in a single batched claim; [n >= 2] also counts as a batched
    steal. Bumped on the {e thief's own handle} (single writer), not the
    victim segment. *)

val note_probe_locality : t -> far:bool -> unit
(** One steal probe classified by the pool topology: [far] iff the probed
    segment is outside the prober's locality group. Thief's own handle. *)

val note_steal_locality : t -> far:bool -> elements:int -> unit
(** One successful steal transfer of [elements] elements classified by the
    pool topology, also bucketed into the near/far batch-size
    distributions. Thief's own handle. *)

(** {2 Reading and merging} *)

val removes : t -> int
(** [removes s] is all successful removes: local + stolen. *)

val merge : t -> t -> t
(** [merge a b] is a fresh sum of both; neither argument is modified. *)

val merge_all : t list -> t

val counters : t -> Cpool_metrics.Counters.t
(** Every scalar counter as a merge-friendly labelled set. *)

val segments_per_steal : t -> Cpool_metrics.Sample.t
(** Distribution of segments examined per successful steal (the paper's
    Section 4.2 metric), reconstructed from the buckets. *)

val elements_per_steal : t -> Cpool_metrics.Sample.t
(** Distribution of elements obtained per steal (Figure 7's metric). *)

val steal_batch_sizes : t -> Cpool_metrics.Sample.t
(** Distribution of elements moved per single batched steal transfer,
    recorded on the victim segment's side. *)

val near_probes : t -> int

val far_probes : t -> int

val near_steals : t -> int

val far_steals : t -> int
(** Locality-classified probe/steal counts; all zero unless the pool was
    created with a topology. [near_steals + far_steals = steals] and
    [near_probes + far_probes] equals the total probe count whenever a
    topology is present. *)

val near_steal_batch_sizes : t -> Cpool_metrics.Sample.t

val far_steal_batch_sizes : t -> Cpool_metrics.Sample.t
(** Distance-bucketed batch telemetry: distribution of elements moved per
    steal, split by whether the victim was in the thief's locality group. *)

val hints_published : t -> int

val hints_claimed : t -> int

val hints_delivered : t -> int

val hints_expired : t -> int

val fast_path_ops : t -> int
(** Owner ring operations: pushes (or batches) plus successful pops. *)

val inbox_adds : t -> int
(** Successful MPSC inbox pushes (foreign spill adds). *)

val inbox_drains : t -> int
(** Owner exchange-drains of the inbox into the ring. *)

val inbox_drained : t -> int
(** Elements moved by those drains. *)

val top_cas_retries : t -> int
(** Failed CAS claims of the ring's [top] cursor. *)

val mpsc_retries : t -> int
(** Failed CASes on the MPSC inbox stack. *)

val mean_batch_size : t -> float
(** Mean elements moved per steal transfer ([nan] with none recorded). *)

val mean_segments_per_steal : t -> float
(** Exact mean from running totals ([nan] with no steals). *)

val mean_elements_per_steal : t -> float

val steal_fraction : t -> float
(** Fraction of successful removes that required a steal ([nan] with no
    removes). *)

val render : ?title:string -> t -> string
(** One-row summary table via {!Cpool_metrics.Render}. *)

val render_table : ?title:string -> (string * t) list -> string
(** Per-worker telemetry table, one row per named stats plus a TOTAL row
    when there are several. *)

val render_path_table : ?title:string -> (string * t) list -> string
(** Ring-path table (owner pushes and pops, inbox adds/drains, CAS
    retries), one row per named stats — used with per-segment stats, where
    these counters live. *)
