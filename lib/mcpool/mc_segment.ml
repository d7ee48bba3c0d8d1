(* The hardware instantiation of the segment, on Mc_prim.Real.
   All the logic lives in Mc_segment_core so the interleaving checker can
   run the identical code on instrumented primitives. *)
type 'a took = 'a Mc_segment_core.took = Missed | Took of 'a * int

include Mc_segment_core.Make (Mc_prim.Real)
