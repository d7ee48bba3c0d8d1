(** One segment of the multicore concurrent pool.

    A lock-free SPMC FIFO ring owned by one domain, plus a lock-free MPSC
    inbox (Treiber stack) for foreign (spill) adds. The {e owner} pushes at
    the back of the ring with plain stores published by one atomic bump of
    [bottom]; {e every} consumer — the owner's pop and any number of
    concurrent stealers — takes from the front by copying a window and
    committing it with a single CAS on [top] (stealers claim up to half the
    ring in one such batched claim). No operation takes a lock. The layout
    and the memory-ordering argument are documented in DESIGN.md §12.

    Ownership discipline: exactly one domain at a time may call the owner
    operations ({!add}, {!try_add}, {!try_remove}, {!reserve}) on a given
    segment, and only that domain may pass it as the [~into] of
    {!steal_into} — [Mc_pool] enforces this by routing them through the
    registered handle of the segment's slot. Any domain may call
    {!spill_add}, {!steal_half}, {!size}, {!spare} concurrently, and any
    segment may be the victim of a {!steal_into}, the thief's own included.

    On a bounded segment the atomic count is the source of truth for
    capacity: it equals the stored element count (ring + inbox) plus any
    outstanding {!reserve}d headroom and never exceeds the capacity — every
    increment goes through a compare-and-set that refuses to pass the bound,
    so the limit holds at every instant even against the lock-free owner. *)

type 'a t

val make : ?capacity:int -> id:int -> unit -> 'a t
(** [make ~id ()] is an empty segment; [capacity] bounds it (default
    unbounded). Raises [Invalid_argument] if [capacity <= 0]. *)

val id : 'a t -> int

val capacity : 'a t -> int option
(** [capacity s] is the bound given at creation, if any. *)

val size : 'a t -> int
(** [size s] is an atomic snapshot of the occupied capacity: stored
    elements plus outstanding reservations (may be stale by the time it is
    used — callers re-check or rely on the CAS claims). *)

val add : 'a t -> 'a -> unit
(** [add s x] inserts unconditionally, ignoring any capacity (only safe on
    unbounded segments; the pool uses it for unbounded adds and banking).
    It allocates nothing unless the ring must grow. Owner only. *)

val try_add : 'a t -> 'a -> bool
(** [try_add s x] inserts unless that would exceed the capacity, counting
    reserved headroom as occupied. Owner only. *)

val spill_add : 'a t -> 'a -> bool
(** [spill_add s x] inserts from a {e foreign} domain (the pool's spill
    path): the element is CAS-pushed onto the segment's MPSC inbox — no
    lock, any number of concurrent spillers. The owner folds the inbox into
    its ring when the ring runs dry, preserving arrival order (spill
    traffic is FIFO end-to-end); stealers can also lift inbox elements
    directly. [false] if the segment is full. Safe from any domain. *)

val spare : 'a t -> int
(** [spare s] is the remaining capacity ([max_int] when unbounded). *)

val try_remove : 'a t -> 'a option
(** [try_remove s] takes the {e oldest} stored element (FIFO): the front of
    the ring, refilled from the spill inbox when the ring runs dry. Always
    lock-free: the take commits with one CAS on the front cursor, shared
    with stealers. (The pool is unordered — FIFO is a property of this
    implementation, pinned by tests, not of the pool interface.) Its only
    allocation is the returned [Some]. Owner only. *)

val steal_half : ?max_take:int -> 'a t -> 'a Cpool.Steal.loot
(** [steal_half s] claims [min (ceil n/2) max_take] of the [n] ring
    elements (the oldest ones) with one batched CAS claim of the front
    window — no lock, concurrent stealers race on the CAS and retry.
    [Single] / [Batch] / [Nothing] as the count dictates. When the ring is
    empty it lifts up to half the spill inbox instead, one CAS-pop per
    cell. The loot is a fresh list; a thief that keeps the remainder uses
    {!steal_into} instead. Safe from any domain. *)

type 'a took = Missed | Took of 'a * int
(** What {!steal_into} moved: the oldest element and the number of
    elements claimed ([>= 1]), or nothing. *)

val steal_into : ?reserved:int -> 'a t -> into:'a t -> 'a took
(** [steal_into victim ~into] is the thief-side transfer: it claims the
    oldest [w = ceil n/2] of the victim's [n] ring elements with the same
    copy-then-CAS claim as {!steal_half}, but copies the window's tail slot
    to slot into [into]'s ring past its bottom, publishes it there with one
    atomic add (as a batched push), and returns [Took (oldest, w)]. No loot
    list, no copy buffer: a call allocates only the returned block unless
    [into]'s ring has to grow. A failed claim writes the slots it filled
    back to empty before it retries. When the victim's ring is dry it lifts
    up to half of the victim's spill inbox and pushes all but the oldest
    into [into] in one batch. [Missed] when it found nothing.

    [reserved] is room the caller already holds in [into] from {!reserve}:
    the transfer then takes at most [reserved + 1] elements, banks the
    tail under the reservation and releases whatever it did not use,
    including when it takes nothing, so a bounded [into] never exceeds
    its capacity. Without it the transfer raises [into]'s count itself
    and, like {!add}, ignores any capacity.

    [into] must be owned by the caller; [victim] may be any segment,
    [into] itself included. Raises [Invalid_argument] if
    [reserved < 0]. *)

val reserve : 'a t -> int -> int
(** [reserve s k] claims up to [k] units of spare capacity and returns the
    amount actually claimed (all of [k] when unbounded). Reserved units
    count as occupied until a {!steal_into} [~reserved] consumes them. A
    thief reserves room in its own segment {e before} stealing, so the
    banked remainder always fits — capacity can never be exceeded, even
    transiently. Raises [Invalid_argument] if [k < 0]. Owner only. *)

val inbox_length : 'a t -> int
(** [inbox_length s] is a racy snapshot of the spill-inbox length (walks
    the stack; telemetry and tests only). *)

val stats : 'a t -> Mc_stats.t
(** [stats s] is the segment's live path telemetry (ring pushes/pops,
    inbox adds/drains, CAS retries). Owner-written fields have a single
    writer; cross-domain fields are atomic inside [Mc_stats]; read racily
    or merge at quiescence. *)

val invariant_ok : 'a t -> bool
(** [invariant_ok s] checks that the atomic count matches the stored
    element count (ring + inbox), that the cursors satisfy
    [scrub <= top <= bottom], that the capacity is respected, and that
    every ring slot outside [\[scrub, bottom)] is empty (no slot pins an
    element the segment no longer holds or is about to clear). Lock-free
    and only meaningful at quiescence (no thread mid-operation, no
    outstanding reservations); the stress harness calls it after every
    run. *)

val debug_counts : 'a t -> int * int
(** [(count, stored)]: unlocked snapshot of the atomic count and the
    stored element count, for checker invariants ([count <= capacity] at
    every instant; [count = stored] at quiescence). Not linearizable —
    harness use only. *)
