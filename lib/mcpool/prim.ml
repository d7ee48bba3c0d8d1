module Atomic = struct
  type 'a t = 'a Stdlib.Atomic.t

  external make : 'a -> 'a t = "%makemutable"
  external get : 'a t -> 'a = "%atomic_load"
  external exchange : 'a t -> 'a -> 'a = "%atomic_exchange"
  external fetch_and_add : int t -> int -> int = "%atomic_fetch_add"
  external compare_and_set : 'a t -> 'a -> 'a -> bool = "%atomic_cas"

  let set = Stdlib.Atomic.set

  (* An atomic is a one-word heap block: consecutive [make]s land on the
     same cache line and false-share across domains. Re-homing each hot
     atomic in an oversized block keeps them a line apart. *)
  let make_padded v = Cpool_util.Pad.copy_as_padded (make v)
end

module Mutex = Stdlib.Mutex

module Plain = struct
  type 'a t = 'a ref

  external make : 'a -> 'a t = "%makemutable"
  external get : 'a t -> 'a = "%field0"
  external set : 'a t -> 'a -> unit = "%setfield0"
  external racy_get : 'a t -> 'a = "%field0"
end

(* A bare array: one block for the whole ring, no per-slot box. *)
module Slots = struct
  type 'a t = 'a array

  external make : int -> 'a -> 'a t = "caml_make_vect"
  external length : 'a t -> int = "%array_length"
  external get : 'a t -> int -> 'a = "%array_safe_get"
  external set : 'a t -> int -> 'a -> unit = "%array_safe_set"
  external racy_get : 'a t -> int -> 'a = "%array_safe_get"
end
