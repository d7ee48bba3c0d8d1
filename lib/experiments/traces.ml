open Cpool_workload
open Cpool_metrics

type result = {
  kind : Cpool.Pool.kind;
  balanced : bool;
  producers : int list;
  trace : Trace.t;
  producer_steals : (int * int) list;
  first_steal_time : (int * float option) list;
}

(* Time of the first size drop of >= 2 in [seg]'s series — its first steal. *)
let first_steal trace ~seg =
  let result = ref None in
  let prev = ref 0 in
  List.iter
    (fun (time, s, size) ->
      if s = seg then begin
        if !result = None && size <= !prev - 2 then result := Some time;
        prev := size
      end)
    (Trace.events trace);
  !result

let run ~kind ~balanced ?(producers = 5) cfg =
  let p = cfg.Exp_config.participants in
  let roles =
    if balanced then Role.balanced_producers ~participants:p ~producers
    else Role.contiguous_producers ~participants:p ~producers
  in
  let spec = Exp_config.spec cfg ~kind ~record_trace:true roles in
  let r = Driver.run spec in
  let trace =
    match r.Driver.trace with
    | Some t -> t
    | None -> assert false
  in
  let producer_positions = Role.producer_positions roles in
  {
    kind;
    balanced;
    producers = producer_positions;
    trace;
    producer_steals =
      List.map (fun seg -> (seg, Trace.steals_observed trace ~seg)) producer_positions;
    first_steal_time = List.map (fun seg -> (seg, first_steal trace ~seg)) producer_positions;
  }

let untouched_producers r =
  List.filter_map (fun (seg, steals) -> if steals = 0 then Some seg else None) r.producer_steals

let render ~figure r =
  let p = Trace.segments r.trace in
  let labels =
    Array.init p (fun i ->
        if List.mem i r.producers then Printf.sprintf "P%02d" i else Printf.sprintf "c%02d" i)
  in
  let grid = Trace.grid r.trace ~buckets:72 in
  let steal_rows =
    List.map
      (fun ((seg, n), (_, first)) ->
        [
          Printf.sprintf "producer %d" seg;
          string_of_int n;
          (match first with
          | Some t -> Printf.sprintf "%.0f ms" (t /. 1000.0)
          | None -> "never");
        ])
      (List.combine r.producer_steals r.first_steal_time)
  in
  String.concat "\n"
    [
      Printf.sprintf
        "%s -- segment sizes over time: %s algorithm, %d producers (%s arrangement)" figure
        (Cpool_intf.to_string r.kind)
        (List.length r.producers)
        (if r.balanced then "balanced" else "contiguous/unbalanced");
      Render.strip_chart ~labels grid;
      Render.table ~title:"Steals suffered by each producer's segment"
        ~headers:[ "segment"; "steals"; "first stolen at" ] ~rows:steal_rows ();
      (match untouched_producers r with
      | [] -> "every producer was stolen from"
      | untouched ->
        Printf.sprintf "producers never stolen from: %s"
          (String.concat ", " (List.map string_of_int untouched)));
    ]
