open Cpool_workload
open Cpool_metrics

type point = {
  x_add_percent : float;
  op_time : float;
  steal_fraction : float;
  label : string;
}

type result = {
  kind : Cpool.Pool.kind;
  random_series : point list;
  producer_consumer_series : point list;
}

let measured_add_percent results =
  let adds, ops =
    List.fold_left
      (fun (adds, ops) r ->
        ( adds + r.Driver.pool_totals.Cpool.Pool.adds,
          ops + r.Driver.ops_performed ))
      (0, 0) results
  in
  if ops = 0 then Float.nan else 100.0 *. float_of_int adds /. float_of_int ops

let mean_steal_fraction results =
  let fractions = List.map Driver.steal_fraction results in
  let finite = List.filter Float.is_finite fractions in
  match finite with
  | [] -> Float.nan
  | _ -> List.fold_left ( +. ) 0.0 finite /. float_of_int (List.length finite)

let point_of_results ~label results =
  {
    x_add_percent = measured_add_percent results;
    op_time = Driver.mean_of (fun r -> r.Driver.op_time) results;
    steal_fraction = mean_steal_fraction results;
    label;
  }

let run ?(kind = Cpool.Pool.Tree) cfg =
  let p = cfg.Exp_config.participants in
  let random_series =
    List.init 11 (fun step ->
        let add_percent = 10 * step in
        let roles = Role.uniform_mix ~participants:p ~add_percent in
        let spec = Exp_config.spec cfg ~kind ~seed_offset:step roles in
        point_of_results
          ~label:(Printf.sprintf "random %d%% adds" add_percent)
          (Exp_config.trials cfg spec))
  in
  let producer_consumer_series =
    List.init (p + 1) (fun producers ->
        let roles = Role.contiguous_producers ~participants:p ~producers in
        let spec = Exp_config.spec cfg ~kind ~seed_offset:(100 + producers) roles in
        point_of_results
          ~label:(Printf.sprintf "%d producers" producers)
          (Exp_config.trials cfg spec))
  in
  { kind; random_series; producer_consumer_series }

let row_of_point p =
  [
    p.label;
    Render.float_cell p.x_add_percent;
    Render.float_cell (p.op_time /. 1000.0);
    Render.float_cell (100.0 *. p.steal_fraction);
  ]

let render r =
  let headers = [ "condition"; "% adds (measured)"; "op time (ms)"; "% removes stealing" ] in
  let table series title =
    Render.table ~title ~headers ~rows:(List.map row_of_point series) ()
  in
  let to_xy series =
    List.filter_map
      (fun p ->
        if Float.is_finite p.x_add_percent && Float.is_finite p.op_time then
          Some (p.x_add_percent, p.op_time /. 1000.0)
        else None)
      series
  in
  String.concat "\n"
    [
      Printf.sprintf
        "Figure 2 -- average operation time vs job mix (%s traversal algorithm)"
        (Cpool_intf.to_string r.kind);
      table r.random_series "Random operations model";
      table r.producer_consumer_series "Producer/consumer model (contiguous producers)";
      Render.chart ~title:"Average operation time (ms) vs percent adds"
        ~x_label:"percent of operations that were adds" ~y_label:"ms per operation"
        [
          ("random ops", to_xy r.random_series);
          ("producer/consumer", to_xy r.producer_consumer_series);
        ];
    ]
