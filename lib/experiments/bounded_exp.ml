open Cpool_workload
open Cpool_metrics

type row = {
  capacity : int option;
  add_time : float;
  spill_fraction : float;
  reject_fraction : float;
  final_fill : float;
}

type result = { kind : Cpool.Pool.kind; rows : row list }

let run ?(kind = Cpool.Pool.Linear) ?(capacities = [ 10; 20; 40; 80 ]) cfg =
  let p = cfg.Exp_config.participants in
  let roles = Role.uniform_mix ~participants:p ~add_percent:70 in
  let measure capacity seed_offset =
    let base = Exp_config.spec cfg ~kind roles ~seed_offset in
    let spec =
      { base with Driver.pool = { base.Driver.pool with Cpool.Pool.capacity } }
    in
    let results = Exp_config.trials cfg spec in
    let adds, spills, rejects, final =
      List.fold_left
        (fun (a, s, rj, f) r ->
          let t = r.Driver.pool_totals in
          ( a + t.Cpool.Pool.adds + t.Cpool.Pool.rejected_adds,
            s + t.Cpool.Pool.spills,
            rj + t.Cpool.Pool.rejected_adds,
            f + Array.fold_left ( + ) 0 r.Driver.final_sizes ))
        (0, 0, 0, 0) results
    in
    let attempted = float_of_int adds in
    {
      capacity;
      add_time = Driver.mean_of (fun r -> r.Driver.add_time) results;
      spill_fraction = (if adds = 0 then Float.nan else float_of_int spills /. attempted);
      reject_fraction = (if adds = 0 then Float.nan else float_of_int rejects /. attempted);
      final_fill =
        (match capacity with
        | None -> Float.nan
        | Some c ->
          float_of_int final /. float_of_int (List.length results * p * c));
    }
  in
  {
    kind;
    rows =
      List.mapi (fun i c -> measure (Some c) (1400 + i)) capacities
      @ [ measure None 1450 ];
  }

let render r =
  let headers =
    [ "capacity/segment"; "add time us"; "% adds spilled"; "% adds rejected"; "final fill" ]
  in
  let rows =
    List.map
      (fun row ->
        [
          (match row.capacity with Some c -> string_of_int c | None -> "unbounded");
          Render.float_cell row.add_time;
          Render.float_cell (100.0 *. row.spill_fraction);
          Render.float_cell (100.0 *. row.reject_fraction);
          (match row.capacity with
          | Some _ -> Printf.sprintf "%.0f%%" (100.0 *. row.final_fill)
          | None -> "-");
        ])
      r.rows
  in
  String.concat "\n"
    [
      Printf.sprintf
        "Extension (paper footnote) -- bounded segments with symmetric spill (%s, 70%% adds)"
        (Cpool_intf.to_string r.kind);
      Render.table ~headers ~rows ();
      "Tight bounds turn local adds into remote spills and finally rejects as the";
      "whole pool saturates; add times rise with the spill distance.";
    ]
