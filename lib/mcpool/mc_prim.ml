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

module Real = struct
  module Atomic = struct
    include Stdlib.Atomic

    (* An atomic is a one-word heap block: consecutive [make]s land on the
       same cache line and false-share across domains. Re-homing each hot
       atomic in an oversized block keeps them a line apart. *)
    let make_padded v = Cpool_util.Pad.copy_as_padded (Stdlib.Atomic.make v)
  end

  module Mutex = Mutex

  module Plain = struct
    type 'a t = { mutable v : 'a }

    let make v = { v }
    let get c = c.v
    let set c x = c.v <- x
    let racy_get = get
  end

  (* A bare array: one block for the whole ring, no per-slot box. *)
  module Slots = struct
    type 'a t = 'a array

    let make = Array.make
    let length = Array.length
    let get = Array.get
    let set = Array.set
    let racy_get = Array.get
  end
end
