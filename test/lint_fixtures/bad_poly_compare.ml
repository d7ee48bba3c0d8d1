(* R7 known-bad: polymorphic ordering functions where the rule applies. *)

(* min/max are ordinary functions over the polymorphic comparison: a C
   call per use, even though both arguments are ints here. *)
let clamp lo hi (x : int) = max lo (min hi x)

(* The qualified form is the same function. *)
let bigger (a : int) b = Stdlib.max a b

(* compare passed as a value is never specialised to int. *)
let sort_ints (xs : int list) = List.sort compare xs
