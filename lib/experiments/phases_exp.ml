open Cpool_workload
open Cpool_metrics

type phase_report = {
  name : string;
  op_time : float;
  steal_fraction : float;
  aborts : int;
  pool_size_after : int;
}

type result = {
  kind : Cpool.Pool.kind;
  lifecycle : phase_report list;
  rotation : phase_report list;
}

let report name r =
  {
    name;
    op_time = Sample.mean r.Driver.op_time;
    steal_fraction = Driver.steal_fraction r;
    aborts = r.Driver.aborts;
    pool_size_after = Array.fold_left ( + ) 0 r.Driver.final_sizes;
  }

let run ?(kind = Cpool.Pool.Linear) cfg =
  let p = cfg.Exp_config.participants in
  let ops = cfg.Exp_config.total_ops in
  let spec roles = Exp_config.spec cfg ~kind ~seed_offset:1700 roles in
  let base = spec (Role.uniform_mix ~participants:p ~add_percent:50) in
  (* A short fill, a stable middle, and a drain long enough to empty what
     the fill banked. *)
  let lifecycle_phases =
    [
      (ops / 5, Role.uniform_mix ~participants:p ~add_percent:80);
      (2 * ops / 5, Role.uniform_mix ~participants:p ~add_percent:50);
      (2 * ops / 5, Role.uniform_mix ~participants:p ~add_percent:10);
    ]
  in
  let lifecycle =
    List.map2 report
      [ "fill (80% adds)"; "stable (50% adds)"; "drain (10% adds)" ]
      (Driver.run_phases base lifecycle_phases)
  in
  (* Rotate a contiguous block of 4 producers a third of the ring each
     phase: consumers must re-discover the producers after each shift. *)
  let rotated offset =
    let roles = Array.make p Role.Consumer in
    for k = 0 to (p / 4) - 1 do
      roles.((offset + k) mod p) <- Role.Producer
    done;
    roles
  in
  let rotation_phases =
    [ (ops / 3, rotated 0); (ops / 3, rotated (p / 3)); (ops / 3, rotated (2 * p / 3)) ]
  in
  let rotation =
    List.map2 report
      [ "producers at 0.."; "rotated by p/3"; "rotated by 2p/3" ]
      (Driver.run_phases { base with Driver.seed = 1_234_567L } rotation_phases)
  in
  { kind; lifecycle; rotation }

let render_block title reports =
  let headers = [ "phase"; "op time us"; "% removes stealing"; "aborts"; "pool size after" ] in
  let rows =
    List.map
      (fun r ->
        [
          r.name;
          Render.float_cell r.op_time;
          Render.float_cell (100.0 *. r.steal_fraction);
          string_of_int r.aborts;
          string_of_int r.pool_size_after;
        ])
      reports
  in
  Render.table ~title ~headers ~rows ()

let render r =
  String.concat "\n"
    [
      Printf.sprintf "Extension (Sec 3.5) -- time-varying workloads (%s algorithm)"
        (Cpool_intf.to_string r.kind);
      render_block "Application lifecycle: fill, stable, drain (one continuous run)" r.lifecycle;
      render_block "Dynamic roles: the producer block rotates each phase" r.rotation;
      "Each phase behaves like the paper's standalone experiment at its mix: the";
      "fill phase is steal-free, the drain phase is steal- and abort-heavy, and";
      "rotating the producers re-creates the bunching transient at each shift.";
    ]
