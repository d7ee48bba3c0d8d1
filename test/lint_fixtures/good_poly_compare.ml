(* R7 known-good: monomorphic ordering functions, record fields that share
   the names, and a documented suppression. *)

let clamp lo hi x = Int.max lo (Int.min hi x)

let sort_ints (xs : int list) = List.sort Int.compare xs

let by_name (a : string) b = String.compare a b

(* Field labels are not the functions. *)
type bounds = { min : int; max : int }

let width b = b.max - b.min

let unit_bounds = { min = 0; max = 1 }

(* Structural order over a variant is the intent here. *)
let order (a : [ `Lo | `Hi ]) b =
  (* lint: allow poly-compare -- structural order over a constant variant *)
  compare a b
