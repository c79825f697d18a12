module Trace = Ppj_scpu.Trace
module Host = Ppj_scpu.Host

let is_a_read table_name (e : Trace.entry) =
  match (e.op, e.region) with
  | Trace.Read, Trace.Table n -> String.equal n table_name
  | _ -> false

let first_table_name entries =
  List.find_map
    (function { Trace.op = Trace.Read; region = Trace.Table n; _ } -> Some n | _ -> None)
    entries

let naive_match_counts trace ~a_len =
  let entries = Trace.to_list trace in
  let a_name = match first_table_name entries with Some n -> n | None -> "A" in
  let counts = Array.make a_len 0 in
  let current = ref (-1) in
  List.iter
    (fun (e : Trace.entry) ->
      if is_a_read a_name e then incr current
      else
        match (e.op, e.region) with
        | Trace.Write, Trace.Output when !current >= 0 && !current < a_len ->
            counts.(!current) <- counts.(!current) + 1
        | _ -> ())
    entries;
  counts

let naive_match_pairs trace =
  let entries = Trace.to_list trace in
  let a_name = match first_table_name entries with Some n -> n | None -> "A" in
  let current_a = ref (-1) in
  let current_b = ref (-1) in
  let pairs = ref [] in
  List.iter
    (fun (e : Trace.entry) ->
      match (e.op, e.region) with
      | Trace.Read, Trace.Table n when String.equal n a_name ->
          current_a := e.index;
          current_b := -1
      | Trace.Read, Trace.Table _ -> current_b := e.index
      | Trace.Write, Trace.Output when !current_a >= 0 && !current_b >= 0 ->
          pairs := (!current_a, !current_b) :: !pairs
      | _ -> ())
    entries;
  List.rev !pairs

let duplicate_histogram host region n =
  let tbl = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let c = Host.raw_get host region i in
    Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c))
  done;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> Stdlib.compare b a)

let burst_sizes trace =
  let bursts = ref [] in
  let current = ref 0 in
  List.iter
    (fun (e : Trace.entry) ->
      match e.op with
      | Trace.Write -> incr current
      | Trace.Read ->
          if !current > 0 then begin
            bursts := !current :: !bursts;
            current := 0
          end)
    (Trace.to_list trace);
  if !current > 0 then bursts := !current :: !bursts;
  List.rev !bursts
