(** The hardware primitives the segment ({!Mc_segment}) and the hint board
    ({!Mc_hints}) are compiled against: [Stdlib.Atomic]'s operations, a
    one-field mutable block for [Plain] and a bare array for [Slots].

    It has the shape of {!Mc_prim.S} ([Mc_prim] checks that it matches),
    but every operation on a hot path is declared here as an [external].
    An [external] in an interface is inlined at the call site from the
    [.cmi] alone, even when the caller is compiled [-opaque] and without
    flambda, so an owner add costs the primitives themselves and no call
    through a closure. The same source files also compile as functors over
    {!Mc_prim.S} ([Mc_segment_core], [Mc_hints_core]) for the interleaving
    checker. *)

module Atomic : sig
  type 'a t

  external make : 'a -> 'a t = "%makemutable"

  val make_padded : 'a -> 'a t
  (** Like [make], but re-homed in a padded block (see
      [Cpool_util.Pad]), so neighbouring allocations do not share its cache
      line. *)

  external get : 'a t -> 'a = "%atomic_load"

  val set : 'a t -> 'a -> unit

  external exchange : 'a t -> 'a -> 'a = "%atomic_exchange"
  external fetch_and_add : int t -> int -> int = "%atomic_fetch_add"
  external compare_and_set : 'a t -> 'a -> 'a -> bool = "%atomic_cas"
end

module Mutex : sig
  type t = Stdlib.Mutex.t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

(** One unsynchronised mutable cell: a one-field block. *)
module Plain : sig
  type 'a t

  external make : 'a -> 'a t = "%makemutable"
  external get : 'a t -> 'a = "%field0"
  external set : 'a t -> 'a -> unit = "%setfield0"
  external racy_get : 'a t -> 'a = "%field0"
end

(** A fixed-length array of unsynchronised cells: one bare array, with
    bounds-checked accesses. *)
module Slots : sig
  type 'a t

  external make : int -> 'a -> 'a t = "caml_make_vect"
  external length : 'a t -> int = "%array_length"
  external get : 'a t -> int -> 'a = "%array_safe_get"
  external set : 'a t -> int -> 'a -> unit = "%array_safe_set"
  external racy_get : 'a t -> int -> 'a = "%array_safe_get"
end
