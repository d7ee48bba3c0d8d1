open Cpool_sim

type scheduler = Pool_scheduler of Cpool.Pool.kind | Stack_scheduler

let scheduler_to_string = function
  | Pool_scheduler kind -> "pool/" ^ Cpool_intf.to_string kind
  | Stack_scheduler -> "stack"

type config = {
  workers : int;
  scheduler : scheduler;
  plies : int;
  expand_cost : float;
  leaf_cost : float;
  seed : int64;
  cost : Topology.cost_model;
}

let default_config =
  {
    workers = 16;
    scheduler = Pool_scheduler Cpool.Pool.Linear;
    plies = 3;
    expand_cost = 14.0;
    leaf_cost = 900.0;
    seed = 1L;
    cost = Topology.butterfly;
  }

type report = {
  value : int;
  leaves : int;
  tasks : int;
  duration : float;
  pool_totals : Cpool.Pool.totals option;
  stack_lock : (int * int) option;
}

(* A task is one board position awaiting expansion or evaluation. The
   bookkeeping cells live on the node of the worker that created the task,
   so completing a stolen task pays remote accesses — as block-transferring
   results did on the real machine. *)
type task = {
  board : Board.t;
  plies_left : int;
  parent : task option;
  pending : int Memory.t; (* children not yet completed *)
  acc : int Memory.t; (* running max of -(child value) *)
}

let analyse ?(board = Board.empty) config =
  if config.workers <= 0 then invalid_arg "Parallel.analyse: workers must be positive";
  if config.plies < 0 then invalid_arg "Parallel.analyse: plies must be non-negative";
  let engine = Engine.create ~cost:config.cost ~nodes:config.workers ~seed:config.seed () in
  let pool, work_list, lock_stats =
    match config.scheduler with
    | Pool_scheduler kind ->
      let pool =
        Cpool.Pool.create
          {
            Cpool.Pool.default_config with
            segments = config.workers;
            kind;
            profile = Cpool.Segment.Boxed;
          }
      in
      (Some pool, Work_list.of_pool pool, None)
    | Stack_scheduler ->
      let wl, stats = Work_list.global_stack () in
      (None, wl, Some stats)
  in
  let root_value = ref None in
  let leaves = ref 0 in
  let tasks_done = ref 0 in
  let mk_task ~home ~parent ~plies_left board =
    {
      board;
      plies_left;
      parent;
      pending = Memory.make ~home 0;
      acc = Memory.make ~home min_int;
    }
  in
  let rec complete task value =
    match task.parent with
    | None -> root_value := Some value
    | Some parent ->
      ignore (Memory.update parent.acc (fun v -> max v (-value)));
      let remaining_before = Memory.fetch_add parent.pending (-1) in
      if remaining_before = 1 then complete parent (Memory.peek parent.acc)
  in
  let is_leaf task =
    task.plies_left = 0 || Board.winner task.board <> None
    || Board.legal_moves task.board = []
  in
  let process me task =
    incr tasks_done;
    if is_leaf task then begin
      Engine.delay config.leaf_cost;
      incr leaves;
      complete task (Board.evaluate_for_side_to_move task.board)
    end
    else begin
      let moves = Board.legal_moves task.board in
      let children =
        List.map
          (fun m ->
            mk_task ~home:(Engine.self_node ()) ~parent:(Some task)
              ~plies_left:(task.plies_left - 1) (Board.play task.board m))
          moves
      in
      (* Pending must be set before any child becomes visible. *)
      Memory.write task.pending (List.length children);
      Engine.delay (config.expand_cost *. float_of_int (List.length children));
      List.iter (fun child -> work_list.Work_list.add ~me child) children
    end
  in
  let worker me () =
    work_list.Work_list.join ();
    (* Worker 0 seeds the root. *)
    if me = 0 then begin
      let root = mk_task ~home:0 ~parent:None ~plies_left:config.plies board in
      work_list.Work_list.add ~me root
    end;
    let rec loop () =
      match work_list.Work_list.remove ~me with
      | Some task ->
        process me task;
        loop ()
      | None -> ()
    in
    loop ();
    work_list.Work_list.leave ()
  in
  for i = 0 to config.workers - 1 do
    ignore (Engine.spawn engine ~node:i ~name:(Printf.sprintf "worker%d" i) (worker i))
  done;
  (match Engine.run engine with
  | Engine.Completed -> ()
  | Engine.Deadlocked names ->
    failwith ("Parallel.analyse: deadlock: " ^ String.concat "," names)
  | Engine.Hit_limit -> assert false);
  let value =
    match !root_value with
    | Some v -> v
    | None -> failwith "Parallel.analyse: workers exited before the root completed"
  in
  {
    value;
    leaves = !leaves;
    tasks = !tasks_done;
    duration = Engine.now engine;
    pool_totals = Option.map Cpool.Pool.totals pool;
    stack_lock = Option.map (fun f -> f ()) lock_stats;
  }
