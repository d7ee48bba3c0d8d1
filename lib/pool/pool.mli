(** The concurrent pool: a distributed unordered collection (simulated).

    One segment per participant, homed on that participant's node. Adds and
    removes run in the local segment; a remove that finds its segment empty
    searches remote segments with the configured algorithm and steals
    roughly half of the first non-empty segment found (Manber 1986; paper
    Section 2). All operations must run inside the owning participant's
    simulated process. *)

type kind = Cpool_intf.kind = Linear | Random | Tree | Hinted
(** The shared algorithm type ({!Cpool_intf.kind}), re-exported so the old
    [Pool.Linear]-style constructors keep compiling. [Hinted] is the
    paper's Section 5 extension: linear search plus a hint board —
    searchers announce themselves and adders deliver elements directly
    into a waiting searcher's segment (see {!Hints}). Names and parsing
    live in {!Cpool_intf} ([to_string], [of_string], [all]). *)

val all_kinds : kind list
(** The paper's three algorithms: [Linear; Random; Tree] — unlike
    {!Cpool_intf.all}, without [Hinted]. *)

type config = {
  segments : int;  (** Number of segments = participants, one per node. *)
  kind : kind;  (** Search algorithm for steals. *)
  profile : Segment.profile;
      (** [Counting] reproduces the paper's simplified segments; [Boxed]
          charges per-element block transfer. *)
  add_overhead : float;
      (** Fixed local compute charged by every add, in us; calibrates the
          ~70 us uncontended add of Section 4.3. *)
  remove_overhead : float;
      (** Fixed local compute charged by every remove (~110 us). *)
  remote_op_delay : float;
      (** Extra delay charged once per *logical* remote operation during a
          search — each probe/steal attempt on a remote segment and each
          access of a remote tree node — reproducing the paper's Section
          4.3 sweep ("delays were added to each remote operation (attempt
          to steal from a segment) and to each access of nodes in the
          superimposed tree"). Distinct from
          {!Cpool_sim.Topology.cost_model.remote_extra}, which applies to
          every remote memory word access. Default 0. *)
  capacity : int option;
      (** Per-segment capacity (default unbounded). When set, adds that
          find the local segment full spill to a remote segment with spare
          capacity — the paper's footnote: "the problem of an add
          operation encountering a full segment ... could be handled in a
          symmetric fashion, adding remotely to a segment with sufficient
          capacity" — and steals cap their take at the thief's spare
          capacity + 1. *)
  locking_probes : bool;
      (** When true, search probes acquire the victim segment's lock for
          their size read, as the paper's implementation did — searchers
          then queue against the owner's operations. Default false
          (atomic read). See the [lockprobe] experiment. *)
}

val default_config : config
(** 16 segments, [Linear], [Counting], overheads calibrated to the
    paper's reported uncontended operation times. *)

type 'a t

(** How a remove was satisfied. *)
type 'a removal =
  | Local of 'a  (** Served from the caller's own segment. *)
  | Stolen of 'a * Steal.stats  (** Required a search; stats describe it. *)
  | Empty of Steal.stats
      (** The search aborted: every active participant was searching. *)

(** Aggregate pool statistics (uncosted bookkeeping). *)
type totals = {
  adds : int;  (** Successful adds, local + spilled. *)
  removes : int;  (** Successful removes, local + stolen. *)
  steals : int;  (** Removes that required a successful steal. *)
  aborts : int;  (** Removes that aborted on an empty pool. *)
  spills : int;  (** Adds that landed in a remote segment (bounded pools). *)
  deliveries : int;
      (** Adds delivered directly to an announced searcher ([Hinted]). *)
  rejected_adds : int;  (** Adds that found every segment full. *)
  segments_examined : int;  (** Summed over all searches. *)
  elements_stolen : int;  (** Summed over all steals. *)
}

val create :
  ?on_size_change:(seg:int -> size:int -> unit) ->
  ?home_of:(int -> Cpool_sim.Topology.node) ->
  config ->
  'a t
(** [create config] builds the pool data structure (engine-free setup; no
    costs charged). [home_of] maps participant index to node (default:
    identity — participant [i]'s segment lives on node [i]).
    [on_size_change ~seg ~size] fires after every segment mutation, for the
    Figure 3-6 traces. Raises [Invalid_argument] if [segments <= 0] or
    [capacity <= 0] (the same validation [Mc_pool.of_config] applies). *)

val config : 'a t -> config

val join : 'a t -> unit
(** [join t] registers the calling process as an active participant; must
    be called before its first operation. *)

val leave : 'a t -> unit
(** [leave t] deregisters the calling process; call when done so that
    searches by the remaining participants can detect emptiness. *)

(** How an add was satisfied. *)
type add_outcome =
  | Added_locally
  | Spilled of int  (** Landed in the given remote segment (bounded pools). *)
  | Delivered of int  (** Handed directly to the given waiting searcher ([Hinted]). *)
  | Rejected  (** Every segment was full; the element was not inserted. *)

val add : 'a t -> me:int -> 'a -> unit
(** [add t ~me x] inserts [x] into participant [me]'s segment (spilling on
    a bounded pool). Raises [Failure] if the whole pool is full — only
    possible with [capacity] set; use {!add_bounded} to handle that case
    gracefully. *)

val add_bounded : 'a t -> me:int -> 'a -> add_outcome
(** [add_bounded t ~me x] inserts [x] locally when there is room,
    otherwise searches the ring for a segment with spare capacity (costed
    probes, as a steal search charges). On an unbounded pool this is
    always [Added_locally]. *)

val remove : 'a t -> me:int -> 'a removal
(** [remove t ~me] takes an arbitrary element, stealing if the local
    segment is empty. *)

val prefill : 'a t -> (int -> 'a) -> per_segment:int -> unit
(** [prefill t f ~per_segment] loads [per_segment] elements into every
    segment without charging costs — initialises the pool before a run
    (the paper starts with 320 elements over 16 segments). *)

val prefill_segment : 'a t -> seg:int -> 'a -> unit
(** [prefill_segment t ~seg x] loads one element into segment [seg] without
    charging costs (uneven initial fills). *)

val size_of_segment : 'a t -> int -> int
(** [size_of_segment t i] is segment [i]'s size, uncosted (tests/traces). *)

val total_size : 'a t -> int
(** [total_size t] sums all segment sizes, uncosted. *)

val totals : 'a t -> totals
(** [totals t] is the aggregate operation statistics so far. *)

val segment_lock_stats : 'a t -> int -> int * int
(** [segment_lock_stats t i] is [(acquisitions, contended)] for segment
    [i]'s lock. *)
