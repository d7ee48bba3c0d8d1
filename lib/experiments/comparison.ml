open Cpool_workload
open Cpool_metrics

type cell = {
  op_time : float;
  segments_per_steal : float;
  elements_per_steal : float;
  steal_fraction : float;
}

type row = { condition : string; add_percent : int; by_kind : (Cpool.Pool.kind * cell) list }

type result = { random_rows : row list; balanced_pc_rows : row list }

let cell_of_trials results =
  let fractions = List.map Driver.steal_fraction results in
  let finite = List.filter Float.is_finite fractions in
  {
    op_time = Driver.mean_of (fun r -> r.Driver.op_time) results;
    segments_per_steal = Driver.mean_of (fun r -> r.Driver.segments_per_steal) results;
    elements_per_steal = Driver.mean_of (fun r -> r.Driver.elements_per_steal) results;
    steal_fraction =
      (match finite with
      | [] -> Float.nan
      | _ -> List.fold_left ( +. ) 0.0 finite /. float_of_int (List.length finite));
  }

let sweep cfg ~conditions =
  List.map
    (fun (condition, add_percent, roles, seed_offset) ->
      {
        condition;
        add_percent;
        by_kind =
          List.map
            (fun kind ->
              let spec = Exp_config.spec cfg ~kind ~seed_offset roles in
              (kind, cell_of_trials (Exp_config.trials cfg spec)))
            Cpool.Pool.all_kinds;
      })
    conditions

let run cfg =
  let p = cfg.Exp_config.participants in
  let random_conditions =
    List.init 11 (fun step ->
        let add_percent = 10 * step in
        ( Printf.sprintf "random %d%%" add_percent,
          add_percent,
          Role.uniform_mix ~participants:p ~add_percent,
          400 + step ))
  in
  let pc_conditions =
    (* Producer counts giving the same nominal mixes: k of p producers is
       100k/p% adds. *)
    List.init (p + 1) (fun producers ->
        ( Printf.sprintf "balanced p/c %d prod" producers,
          100 * producers / p,
          Role.balanced_producers ~participants:p ~producers,
          500 + producers ))
  in
  {
    random_rows = sweep cfg ~conditions:random_conditions;
    balanced_pc_rows = sweep cfg ~conditions:pc_conditions;
  }

let kind_cell row kind = List.assoc kind row.by_kind

let render_block ~title rows =
  let headers =
    [ "condition"; "linear ms"; "random ms"; "tree ms"; "segs/steal (lin)"; "segs/steal (rnd)";
      "segs/steal (tree)"; "elems/steal (lin)"; "elems/steal (rnd)"; "elems/steal (tree)" ]
  in
  let row_cells row =
    let c kind = kind_cell row kind in
    let lin = c Cpool.Pool.Linear and rnd = c Cpool.Pool.Random and tre = c Cpool.Pool.Tree in
    [
      row.condition;
      Render.float_cell (lin.op_time /. 1000.0);
      Render.float_cell (rnd.op_time /. 1000.0);
      Render.float_cell (tre.op_time /. 1000.0);
      Render.float_cell lin.segments_per_steal;
      Render.float_cell rnd.segments_per_steal;
      Render.float_cell tre.segments_per_steal;
      Render.float_cell lin.elements_per_steal;
      Render.float_cell rnd.elements_per_steal;
      Render.float_cell tre.elements_per_steal;
    ]
  in
  Render.table ~title ~headers ~rows:(List.map row_cells rows) ()

let render r =
  let chart rows title =
    let series kind =
      ( Cpool_intf.to_string kind,
        List.filter_map
          (fun row ->
            let c = kind_cell row kind in
            if Float.is_finite c.op_time then
              Some (float_of_int row.add_percent, c.op_time /. 1000.0)
            else None)
          rows )
    in
    Render.chart ~title ~x_label:"percent adds (nominal)" ~y_label:"ms per operation"
      (List.map series Cpool.Pool.all_kinds)
  in
  String.concat "\n"
    [
      "Section 4.3 -- comparison of search algorithms";
      render_block ~title:"Random operations model" r.random_rows;
      chart r.random_rows "Op time by algorithm (random model)";
      render_block ~title:"Balanced producer/consumer model" r.balanced_pc_rows;
      chart r.balanced_pc_rows "Op time by algorithm (balanced producer/consumer)";
    ]
