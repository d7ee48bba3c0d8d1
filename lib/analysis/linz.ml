(* Wing–Gong linearizability checking of one explored execution against a
   sequential multiset-pool specification.

   The recorder timestamps each operation's invocation and response with a
   global logical counter; an execution's history is the set of recorded
   events with their real-time intervals. [check] then searches for a
   linearization: a total order of the events that (a) respects real-time
   precedence (if op1 responded before op2 was invoked, op1 comes first)
   and (b) is a legal sequential history of the spec below. The search is
   the classic Wing–Gong enumeration — repeatedly linearize some minimal
   (in precedence order) unlinearized event whose result the spec can
   produce — with memoization on (linearized-set, spec-state): two search
   branches reaching the same remaining-work-and-state are equivalent, and
   the first failure prunes both. *)

type _ call =
  | Add : int -> unit call
  | Try_add : int -> bool call
  | Spill : int -> bool call
  | Remove : int option call
  | Steal : int list call
  | Reserve : int -> int call
  | Transfer : (int * int option) -> (int * int) option call

type event =
  | Ev : {
      fiber : int;
      seg : int;
      call : 'r call;
      result : 'r;
      inv : int;
      resp : int;
    }
      -> event

type t = {
  mutable clock : int;
  mutable events : event list;  (* newest first *)
  mutable segs : (int * int option) list;  (* id, capacity *)
}

exception Not_linearizable of string

let create () = { clock = 0; events = []; segs = [] }

let declare_seg t ~id ~capacity =
  if List.mem_assoc id t.segs then
    invalid_arg "Linz.declare_seg: duplicate segment id";
  t.segs <- (id, capacity) :: t.segs

let record (type r) t ~fiber ~seg (call : r call) (f : unit -> r) : r =
  if not (List.mem_assoc seg t.segs) then
    invalid_arg "Linz.record: undeclared segment id";
  t.clock <- t.clock + 1;
  let inv = t.clock in
  let result = f () in
  t.clock <- t.clock + 1;
  let resp = t.clock in
  t.events <- Ev { fiber; seg; call; result; inv; resp } :: t.events;
  result

(* ---- the sequential specification ---------------------------------- *)

(* A segment is a bounded multiset plus a reservation count: [Reserve]
   grants room in advance, [Transfer] consumes it, and occupancy (size +
   outstanding reservations) never exceeds the capacity. *)
type seg_state = { bag : int list (* sorted *); resv : int; cap : int }

let sorted_insert x l =
  let rec go = function
    | [] -> [ x ]
    | y :: _ as l when x <= y -> x :: l
    | y :: rest -> y :: go rest
  in
  go l

(* Multiset difference: [remove_all xs bag] is [Some bag'] iff every
   element of [xs] occurs in [bag] (with multiplicity). *)
let remove_all xs bag =
  let rec remove1 x = function
    | [] -> None
    | y :: rest when x = y -> Some rest
    | y :: rest -> Option.map (fun r -> y :: r) (remove1 x rest)
  in
  List.fold_left
    (fun acc x -> Option.bind acc (remove1 x))
    (Some bag) xs

(* Every way to pick [k] elements of the sorted [bag]: [(picked, rest)]
   pairs, both sorted. *)
let rec choose k bag =
  if k = 0 then [ ([], bag) ]
  else
    match bag with
    | [] -> []
    | y :: rest ->
      List.map (fun (p, r) -> (y :: p, r)) (choose (k - 1) rest)
      @ List.map (fun (p, r) -> (p, y :: r)) (choose k rest)

let size s = List.length s.bag

let room s = s.cap - size s - s.resv

let set id s' states =
  List.map (fun (i, s) -> if i = id then (i, s') else (i, s)) states

let insert_all xs s =
  { s with bag = List.fold_left (fun b x -> sorted_insert x b) s.bag xs }

(* [step states seg call result] lists every spec state (all segments)
   reachable by answering [result] to [call] on segment [seg]: none when
   the spec cannot produce [result]. Only [Transfer] can reach more than
   one, because which elements it banked is not part of its result. *)
let step (type r) states seg (call : r call) (result : r) =
  let s = List.assoc seg states in
  let only_if ok s' = if ok then [ set seg s' states ] else [] in
  let take xs =
    match remove_all xs s.bag with Some bag -> [ set seg { s with bag } states ] | None -> []
  in
  (* An add that reports success needs room; one that reports failure
     needs none to be left. *)
  let bounded_add x ok =
    if ok then only_if (room s > 0) (insert_all [ x ] s) else only_if (room s <= 0) s
  in
  match call with
  | Add x -> only_if true (insert_all [ x ] s)
  | Try_add x -> bounded_add x result
  | Spill x -> bounded_add x result
  | Remove -> (match result with Some x -> take [ x ] | None -> only_if (s.bag = []) s)
  | Steal ->
    (* An empty steal is always legal: the shipped steal_half probes the
       ring and then the inbox in two separate reads, so it can miss
       elements that were always present somewhere — a spurious failure
       the pool's callers must (and do) tolerate. A non-empty loot must
       come out of the bag. *)
    if result = [] then only_if true s else take result
  | Reserve k -> only_if (result = min k (max 0 (room s))) { s with resv = s.resv + result }
  | Transfer (into, reserved) -> (
    (* The same weakening for an empty transfer. Either way it hands back
       the reservation it names, banked elements included. *)
    let bank moved states =
      let o = List.assoc into states in
      match reserved with
      | None -> [ set into (insert_all moved o) states ]
      | Some r when r <= o.resv && List.length moved <= r ->
        [ set into (insert_all moved { o with resv = o.resv - r }) states ]
      | Some _ -> []
    in
    match result with
    | None -> bank [] states
    | Some (x, w) -> (
      match remove_all [ x ] s.bag with
      | Some rest when w >= 1 ->
        List.concat_map
          (fun (moved, left) -> bank moved (set seg { s with bag = left } states))
          (choose (w - 1) rest)
      | Some _ | None -> []))

(* ---- pretty-printing (for failure reports) -------------------------- *)

let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let call_to_string (type r) (call : r call) (result : r) =
  match call with
  | Add x -> Printf.sprintf "add %d" x
  | Try_add x -> Printf.sprintf "try_add %d -> %b" x result
  | Spill x -> Printf.sprintf "spill_add %d -> %b" x result
  | Remove ->
    Printf.sprintf "try_remove -> %s"
      (match result with Some x -> "Some " ^ string_of_int x | None -> "None")
  | Steal -> Printf.sprintf "steal_half -> %s" (ints result)
  | Reserve k -> Printf.sprintf "reserve %d -> %d" k result
  | Transfer (into, reserved) ->
    Printf.sprintf "steal_into%s ~into:%d -> %s"
      (match reserved with None -> "" | Some r -> Printf.sprintf " ~reserved:%d" r)
      into
      (match result with
      | None -> "Missed"
      | Some (x, w) -> Printf.sprintf "Took (%d, %d)" x w)

let event_to_string (Ev e) =
  Printf.sprintf "  [%d,%d] fiber %d seg %d: %s" e.inv e.resp e.fiber e.seg
    (call_to_string e.call e.result)

(* ---- the search ------------------------------------------------------ *)

let check t =
  let events = Array.of_list (List.rev t.events) in
  let n = Array.length events in
  if n > 60 then invalid_arg "Linz.check: history too long";
  let full = (1 lsl n) - 1 in
  let init_states =
    List.map
      (fun (id, cap) ->
        (id, { bag = []; resv = 0; cap = Option.value cap ~default:max_int }))
      t.segs
  in
  (* Memo: states visited and found not to reach [full]. The state key is
     the linearized set plus each segment's (bag, resv) — capacities are
     constant. *)
  let dead : (int * (int * (int list * int)) list, unit) Hashtbl.t =
    Hashtbl.create 64
  in
  let key mask states =
    (mask, List.map (fun (id, s) -> (id, (s.bag, s.resv))) states)
  in
  let rec search mask states =
    mask = full
    || (not (Hashtbl.mem dead (key mask states)))
       &&
       let progressed =
         (* Candidates: unlinearized events no unlinearized event fully
            precedes in real time. *)
         let minimal i =
           let (Ev e) = events.(i) in
           let blocked = ref false in
           for j = 0 to n - 1 do
             if mask land (1 lsl j) = 0 && j <> i then begin
               let (Ev e') = events.(j) in
               if e'.resp < e.inv then blocked := true
             end
           done;
           not !blocked
         in
         let rec try_each i =
           i < n
           && ((mask land (1 lsl i) = 0)
               && minimal i
               && (let (Ev e) = events.(i) in
                   List.exists
                     (search (mask lor (1 lsl i)))
                     (step states e.seg e.call e.result))
              || try_each (i + 1))
         in
         try_each 0
       in
       if not progressed then Hashtbl.add dead (key mask states) ();
       progressed
  in
  if not (search 0 init_states) then
    raise
      (Not_linearizable
         ("no linearization of the recorded history:\n"
         ^ String.concat "\n"
             (List.map event_to_string (Array.to_list events))))
