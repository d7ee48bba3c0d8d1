(* Object identities: every shim atomic, mutex and plain cell gets a small
   integer id at creation. The counter is reset before each instance
   construction inside [explore], and scenarios are deterministic functions
   of their construction, so the k-th object created carries the same id in
   every re-execution — which is what lets choice-point records (accessed
   object per step, sleep-set entries) survive across the stateless
   re-executions of the DFS. *)
let obj_counter = ref 0

let new_oid () =
  incr obj_counter;
  !obj_counter

(* What a scheduled step is about to do, known before it executes: the
   shims label their scheduling points with the accessed object and the
   access kind. [Spawn] is the pseudo-step that starts a fiber (runs its
   thread-local prologue up to the first primitive operation); it touches
   no shared object and conflicts with nothing. *)
type kind = Read | Write | Update | Lock | Unlock | Spawn

type step_info = { oid : int; kind : kind }

(* Two steps conflict (are "dependent" in the Mazurkiewicz sense) when they
   touch the same object and do not trivially commute. Kinds, not dynamic
   outcomes, decide: a failed CAS is still [Update], which over-approximates
   dependence — the safe direction for the reduction. *)
let conflicts a b =
  a.oid = b.oid
  &&
  match (a.kind, b.kind) with
  | Spawn, _ | _, Spawn -> false
  | Read, Read -> false
  | _ -> true

type lk = { mutable held : bool; m_oid : int }

type _ Effect.t += Step : step_info -> unit Effect.t
type _ Effect.t += Wait : lk -> unit Effect.t

(* True only while the scheduler is stepping a fiber. Outside a run
   (scenario setup, invariant probes) the shims execute directly, with no
   scheduling points and no race tracking — the run is single-threaded
   there. *)
let active = ref false

(* The per-run context: the happens-before tracker and the fiber currently
   being stepped, so the plain-cell shims can attribute their accesses. *)
type runctx = { race : Race.t; mutable cur_tid : int }

let ctx : runctx option ref = ref None

let sched_point oid kind = if !active then Effect.perform (Step { oid; kind })

module Prim = struct
  module Atomic = struct
    type 'a t = { mutable v : 'a; a_oid : int }

    let make v = { v; a_oid = new_oid () }

    (* Padding is a hardware layout concern; under the scheduler the plain
       cell is the whole semantics. *)
    let make_padded = make

    let get r =
      sched_point r.a_oid Read;
      r.v

    let set r x =
      sched_point r.a_oid Write;
      r.v <- x

    let exchange r x =
      sched_point r.a_oid Update;
      let old = r.v in
      r.v <- x;
      old

    let fetch_and_add r d =
      sched_point r.a_oid Update;
      let old = r.v in
      r.v <- old + d;
      old

    let compare_and_set r seen x =
      sched_point r.a_oid Update;
      if r.v == seen then begin
        r.v <- x;
        true
      end
      else false
  end

  module Mutex = struct
    type t = lk

    let create () = { held = false; m_oid = new_oid () }

    let rec lock m =
      if not !active then begin
        if m.held then failwith "Sched.Mutex.lock: deadlock outside a run";
        m.held <- true
      end
      else begin
        Effect.perform (Step { oid = m.m_oid; kind = Lock });
        if m.held then begin
          Effect.perform (Wait m);
          lock m
        end
        else m.held <- true
      end

    let unlock m =
      sched_point m.m_oid Unlock;
      m.held <- false
  end

  module Plain = struct
    type 'a t = { mutable pv : 'a; p_oid : int }

    let make v = { pv = v; p_oid = new_oid () }

    (* Plain accesses are NOT scheduling points — they add no schedules to
       the exploration — but each one is checked against the run's
       happens-before clocks, so an access the protocol leaves unordered
       raises [Race.Race] on whichever explored interleaving first exhibits
       the unsynchronized pair. *)
    let get c =
      (match !ctx with
      | Some r when !active -> Race.plain_read r.race ~tid:r.cur_tid ~oid:c.p_oid
      | Some _ | None -> ());
      c.pv

    let set c x =
      (match !ctx with
      | Some r when !active -> Race.plain_write r.race ~tid:r.cur_tid ~oid:c.p_oid
      | Some _ | None -> ());
      c.pv <- x

    (* The sanctioned racy read: unchecked and unrecorded. *)
    let racy_get c = c.pv
  end

  (* An array of plain cells with one object id per index, reported to the
     race detector exactly like [Plain], so accesses to distinct indices
     never conflict. The ids are taken as one consecutive block in index
     order, the ids [n] successive [Plain.make]s would get: a scenario's
     objects are numbered the same whether its cells come one by one or
     as an array, so DPOR labels and race reports read alike. *)
  module Slots = struct
    type 'a t = { cells : 'a array; base_oid : int }

    let make n v =
      let cells = Array.make n v in
      let base_oid = !obj_counter + 1 in
      obj_counter := !obj_counter + n;
      { cells; base_oid }

    let length s = Array.length s.cells

    let get s i =
      (match !ctx with
      | Some r when !active ->
        Race.plain_read r.race ~tid:r.cur_tid ~oid:(s.base_oid + i)
      | Some _ | None -> ());
      s.cells.(i)

    let set s i x =
      (match !ctx with
      | Some r when !active ->
        Race.plain_write r.race ~tid:r.cur_tid ~oid:(s.base_oid + i)
      | Some _ | None -> ());
      s.cells.(i) <- x

    let racy_get s i = s.cells.(i)
  end
end

type status =
  | Done
  | Ready of step_info * (unit -> status)
  | Waiting of lk * (unit -> status)

exception Deadlock
exception Exploded of string

let fiber ~tid (f : unit -> unit) : status =
  let start () =
    Effect.Deep.match_with f ()
      {
        retc = (fun () -> Done);
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Step info ->
              Some
                (fun (k : (a, status) Effect.Deep.continuation) ->
                  Ready (info, fun () -> Effect.Deep.continue k ()))
            | Wait m ->
              Some (fun k -> Waiting (m, fun () -> Effect.Deep.continue k ()))
            | _ -> None);
      }
  in
  Ready ({ oid = -1 - tid; kind = Spawn }, start)

let label_of_status = function
  | Ready (info, _) -> info
  | Waiting (m, _) -> { oid = m.m_oid; kind = Lock }
  | Done -> invalid_arg "label_of_status: Done"

type instance = {
  threads : (unit -> unit) list;
  check_step : unit -> unit;
  check_final : unit -> unit;
}

let max_steps = 10_000

type mode = Dpor | Exhaustive

type stats = { schedules : int; pruned : int }

(* One node of the schedule tree currently on the DFS stack: the state
   reached by the stack prefix above it, which thread ran from it in the
   current execution, which alternatives are scheduled ([backtrack]),
   already explored ([done_], with the label of their first step — the
   information sleep sets need), or provably redundant ([sleep0], inherited
   at entry). [step_clock] is the vector clock of the executed step, for
   the happens-before filter of the backtracking rule. *)
type cpoint = {
  cp_enabled : int list;
  mutable chosen : int;
  mutable label : step_info;
  mutable done_ : (int * step_info) list;
  mutable backtrack : int list;
  mutable sleep0 : (int * step_info) list;
  mutable step_clock : Race.Vclock.t;
}

(* Dynamic partial-order reduction (Flanagan–Godefroid style) with sleep
   sets, over stateless re-execution:

   - Each execution replays the forced stack prefix, then extends it by
     always picking the first enabled, non-sleeping thread.
   - When a step executes, every earlier step of the current stack that
     conflicts with it and is not already ordered before the stepping
     thread's clock gets a backtrack point: the stepping thread is
     scheduled for exploration at that earlier state (or every enabled
     thread there, if it was not enabled then).
   - A thread fully explored from a state goes to sleep for the state's
     remaining branches and wakes only when a dependent step executes;
     reaching a state with every enabled thread asleep proves the
     continuation redundant and prunes the execution.

   In [Exhaustive] mode every enabled thread is a backtrack point and sleep
   sets stay empty: the classic full DFS, kept as the ground truth the
   reduction is cross-validated against. *)
let explore_stats ?(mode = Dpor) ?(max_schedules = 1_000_000) make_instance =
  let stack : cpoint option array = Array.make (max_steps + 1) None in
  let stack_get d =
    match stack.(d) with Some cp -> cp | None -> assert false
  in
  let completed = ref 0 in
  let pruned = ref 0 in
  (* Runs one execution; returns [true] if it ran to completion, [false]
     if sleep-blocked. [replay_len] entries of [stack] carry forced
     choices; entries beyond are created (and counted) as the run deepens.
     Returns the final stack length through [stack_len]. *)
  let stack_len = ref 0 in
  let run_one replay_len =
    obj_counter := 0;
    let inst = make_instance () in
    let state =
      Array.of_list (List.mapi (fun tid f -> fiber ~tid f) inst.threads)
    in
    let n = Array.length state in
    let race = Race.create ~nthreads:n in
    let rc = { race; cur_tid = -1 } in
    ctx := Some rc;
    stack_len := replay_len;
    let steps = ref 0 in
    let enabled () =
      let rec go i acc =
        if i < 0 then acc
        else
          let acc =
            match state.(i) with
            | Ready _ -> i :: acc
            | Waiting (m, _) when not m.held -> i :: acc
            | Waiting _ | Done -> acc
          in
          go (i - 1) acc
      in
      go (n - 1) []
    in
    let all_done () =
      Array.for_all (function Done -> true | Ready _ | Waiting _ -> false) state
    in
    let add_backtrack cp t =
      if not (List.mem t cp.backtrack) then cp.backtrack <- t :: cp.backtrack
    in
    let rec loop d sleep =
      match enabled () with
      | [] -> if all_done () then true else raise Deadlock
      | en -> (
        incr steps;
        if !steps > max_steps then
          raise
            (Exploded
               (Printf.sprintf "run exceeded the %d-step bound" max_steps));
        let fresh_choice () =
          match
            List.find_opt (fun t -> not (List.mem_assoc t sleep)) en
          with
          | None -> None
          | Some t ->
            let cp =
              {
                cp_enabled = en;
                chosen = t;
                label = { oid = 0; kind = Spawn };
                done_ = [];
                backtrack = (if mode = Exhaustive then en else []);
                sleep0 = sleep;
                step_clock = Race.Vclock.make 0;
              }
            in
            stack.(d) <- Some cp;
            stack_len := d + 1;
            Some cp
        in
        let cp =
          if d < replay_len then begin
            let cp = stack_get d in
            (* The scenario must be a deterministic function of its
               construction, or forced prefixes would diverge. *)
            if cp.cp_enabled <> en then
              failwith "Sched.explore: nondeterministic scenario (enabled set \
                        changed across re-execution)";
            cp.sleep0 <- sleep;
            Some cp
          end
          else fresh_choice ()
        in
        match cp with
        | None ->
          (* Every enabled thread is asleep: any continuation from here
             only re-orders independent steps of already-explored
             executions. *)
          false
        | Some cp ->
          let tid = cp.chosen in
          let label = label_of_status state.(tid) in
          cp.label <- label;
          if not (List.mem_assoc tid cp.done_) then
            cp.done_ <- (tid, label) :: cp.done_;
          (* Backtrack-point insertion, against the clocks BEFORE this
             step's own updates. *)
          if mode = Dpor && label.kind <> Spawn then
            for i = d - 1 downto 0 do
              let cpi = stack_get i in
              if
                cpi.chosen <> tid
                && conflicts cpi.label label
                && not (Race.ordered_before race cpi.step_clock ~tid)
              then
                if List.mem tid cpi.cp_enabled then add_backtrack cpi tid
                else List.iter (add_backtrack cpi) cpi.cp_enabled
            done;
          Race.step race ~tid;
          (match label.kind with
          | Spawn -> ()
          | Read | Lock -> Race.acquire race ~tid ~oid:label.oid
          | Unlock -> Race.release race ~tid ~oid:label.oid
          | Write | Update ->
            Race.acquire race ~tid ~oid:label.oid;
            Race.release race ~tid ~oid:label.oid);
          cp.step_clock <- Race.snapshot race ~tid;
          let resume =
            match state.(tid) with
            | Ready (_, k) | Waiting (_, k) -> k
            | Done -> assert false
          in
          rc.cur_tid <- tid;
          active := true;
          let st =
            match resume () with
            | st ->
              active := false;
              st
            | exception e ->
              active := false;
              raise e
          in
          state.(tid) <- st;
          inst.check_step ();
          let sleep' =
            if mode = Exhaustive then []
            else
              List.filter
                (fun (t, l) -> t <> tid && not (conflicts l label))
                (cp.sleep0 @ List.filter (fun (t, _) -> t <> tid) cp.done_)
          in
          loop (d + 1) sleep')
    in
    let finished =
      match loop 0 [] with
      | finished ->
        ctx := None;
        finished
      | exception e ->
        ctx := None;
        raise e
    in
    if finished then inst.check_final ();
    finished
  in
  let rec drive replay_len =
    (if run_one replay_len then begin
       incr completed;
       if !completed > max_schedules then
         raise
           (Exploded
              (Printf.sprintf "exceeded the %d-schedule bound" max_schedules))
     end
     else incr pruned);
    (* Deepest-first: find the lowest stack entry with an unexplored,
       non-redundant alternative and redirect it. *)
    let rec back d =
      if d < 0 then None
      else
        let cp = stack_get d in
        let cands =
          List.filter
            (fun t ->
              (not (List.mem_assoc t cp.done_))
              && not (List.mem_assoc t cp.sleep0))
            (List.sort_uniq compare cp.backtrack)
        in
        match cands with [] -> back (d - 1) | t :: _ -> Some (d, t)
    in
    match back (!stack_len - 1) with
    | None -> ()
    | Some (d, t) ->
      let cp = stack_get d in
      cp.chosen <- t;
      drive (d + 1)
  in
  drive 0;
  { schedules = !completed; pruned = !pruned }

let explore ?mode ?max_schedules make_instance =
  (explore_stats ?mode ?max_schedules make_instance).schedules
