module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val make_padded : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val fetch_and_add : int t -> int -> int
  val compare_and_set : 'a t -> 'a -> 'a -> bool
end

module type MUTEX = sig
  type t

  val create : unit -> t
  val lock : t -> unit
  val unlock : t -> unit
end

module type PLAIN = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val racy_get : 'a t -> 'a
  (* A sanctioned racy read: the caller certifies the value is treated as
     garbage unless a subsequent CAS (or equivalent) validates that no
     conflicting write intervened. The checker's shim exempts it from
     happens-before race reporting; [get]/[set] remain fully checked. *)
end

module type SLOTS = sig
  type 'a t

  val make : int -> 'a -> 'a t
  val length : 'a t -> int
  val get : 'a t -> int -> 'a
  val set : 'a t -> int -> 'a -> unit
  val racy_get : 'a t -> int -> 'a
end

module type S = sig
  module Atomic : ATOMIC
  module Mutex : MUTEX
  module Plain : PLAIN
  module Slots : SLOTS
end

(* The hardware primitives must keep the shape the checker's functors are
   written against. *)
module _ : S = Prim
