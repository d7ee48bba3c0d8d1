open Cpool_workload
open Cpool_metrics

type row = { condition : string; atomic_probe : float; locking_probe : float }

type result = { kind : Cpool.Pool.kind; rows : row list }

let run ?(kind = Cpool.Pool.Tree) cfg =
  let p = cfg.Exp_config.participants in
  let conditions =
    List.map
      (fun add_percent ->
        ( Printf.sprintf "random %d%%" add_percent,
          Role.uniform_mix ~participants:p ~add_percent,
          1500 + add_percent ))
      [ 10; 30; 50; 70 ]
    @ List.map
        (fun producers ->
          ( Printf.sprintf "p/c %d prod (contiguous)" producers,
            Role.contiguous_producers ~participants:p ~producers,
            1600 + producers ))
        [ 1; 2; 5 ]
  in
  let measure locking_probes roles seed_offset =
    let base = Exp_config.spec cfg ~kind roles ~seed_offset in
    let spec =
      { base with Driver.pool = { base.Driver.pool with Cpool.Pool.locking_probes } }
    in
    Driver.mean_of (fun r -> r.Driver.op_time) (Exp_config.trials cfg spec)
  in
  {
    kind;
    rows =
      List.map
        (fun (condition, roles, seed_offset) ->
          {
            condition;
            atomic_probe = measure false roles seed_offset;
            locking_probe = measure true roles (seed_offset + 53);
          })
        conditions;
  }

let render r =
  let headers = [ "condition"; "atomic probes (us)"; "locking probes (us)"; "inflation" ] in
  let rows =
    List.map
      (fun row ->
        [
          row.condition;
          Render.float_cell row.atomic_probe;
          Render.float_cell row.locking_probe;
          (if Float.is_finite row.atomic_probe && row.atomic_probe > 0.0 then
             Printf.sprintf "%.1fx" (row.locking_probe /. row.atomic_probe)
           else "-");
        ])
      r.rows
  in
  String.concat "\n"
    [
      Printf.sprintf "Ablation -- locking vs atomic probes (%s algorithm)"
        (Cpool_intf.to_string r.kind);
      Render.table ~headers ~rows ();
      "Locking probes make searchers queue against the producers' own operations,";
      "inflating sparse-mix times toward the paper's measured magnitudes; the";
      "sparse-slow / sufficient-fast shape is unchanged.";
    ]
