(** The concurrency-discipline rules, as checks over one parsed [.ml].

    Rules (machine names in brackets):
    - R1 [raw-mutex] — no raw [Mutex.lock]/[Mutex.unlock] outside a
      [with_*]-named helper (matched on the last two path components, so
      [Stdlib.Mutex.lock] and functor-parameter mutexes are caught too).
    - R2 [non-atomic-rmw] — no [Atomic.set x (... Atomic.get x ...)]: the
      read and write are separate steps, so a concurrent update between them
      is lost. Also order-aware: an [Atomic.get x] earlier in the same
      function body followed by a blind constant store [Atomic.set x c] is a
      check-then-act with the same lost-update window. Both checks stand
      down for atomics the enclosing structure item drives through
      [compare_and_set] — the CAS-retry idiom is the sanctioned
      read-modify-write, and a plain store next to such a loop is a
      deliberate publish. Gets inside a nested [fun] do not order against
      sets outside it (and vice versa): a closure runs at an unrelated time.
      Use [fetch_and_add]/[compare_and_set]/[exchange], or suppress with
      [(* lint: allow non-atomic-rmw -- <reason> *)] when a lock or
      single-writer phase genuinely protects the window.
    - R3 [blocking-under-lock] — no blocking call ([Mutex.lock],
      [Unix.sleep*], [Domain.join], [Condition.wait], [Thread.delay/join])
      or nested [with_*] call inside the literal callback of a [with_*]
      helper.
    - R4 [ambient-random] — no global [Random.*] (or
      [Random.State.make_self_init]) where [ban_random] is set: the pool,
      simulator and checker must be pure functions of their seeds.
    - R6 [raw-obj] — no [Obj.magic]/[Obj.repr]/[Obj.obj] where [allow_obj]
      is unset. The unsafe casts are confined to the modules that own a
      uniform-representation container and are certified by the interleave
      scenarios ([mc_segment] and its generated functor copy
      [mc_segment_core], [sched]); anywhere else they must carry a
      [(* lint: allow raw-obj -- <reason> *)].
    - R7 [poly-compare] — no bare [min]/[max]/[compare] (nor their
      [Stdlib.] forms) where [ban_poly_compare] is set: [min]/[max] always
      call the generic structural comparison, a C call per use even on
      ints, and [compare] does whenever its type is unknown at the call
      site. Use [Int.min]/[Int.max]/[Int.compare] (or the element type's
      own function), or suppress with
      [(* lint: allow poly-compare -- <reason> *)]. A local binding that
      shadows one of the three names is flagged too: rename it.

    R5 [missing-mli] is a filesystem property checked by {!Lint_driver}. *)

type finding = { file : string; line : int; rule : string; message : string }

val raw_mutex : string
val non_atomic_rmw : string
val blocking_under_lock : string
val ambient_random : string
val raw_obj : string
val poly_compare : string
val missing_mli : string
val bad_suppression : string
val parse_error : string

val all_rules : string list
(** Every rule name, for validating suppression comments. *)

val compare_findings : finding -> finding -> int
(** Order by file, then line, then rule. *)

val pp : Format.formatter -> finding -> unit
(** Renders ["file:line: [rule] message"]. *)

val check_source :
  file:string ->
  ban_random:bool ->
  allow_obj:bool ->
  ban_poly_compare:bool ->
  string ->
  finding list
(** [check_source ~file ~ban_random ~allow_obj ~ban_poly_compare source]
    parses [source]
    (reporting a [parse-error] finding if it does not parse) and returns the
    raw AST-rule findings, before suppression filtering. *)
