(* The repository benchmark.

     ppjbench run --workload W --seed N --seconds S --trace 0|1
     ppjbench ready                         (one shard-p2 cold start)
     ppjbench serve --socket P --dir D [--trace-out F]   (the serve-mix server)

   [run] prints human-readable lines, then one JSON result line: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  It exits 1 unless every op was delivered and matches the
   plaintext oracle and every op's transfer count is the same. *)

open Perfbench
module Recorder = Ppj_obs.Recorder

let workloads = [ "serve-mix"; "shard-p2" ]

let arg name default =
  let rec find = function
    | k :: v :: _ when k = "--" ^ name -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  match (find (Array.to_list Sys.argv), default) with
  | Some v, _ -> v
  | None, Some d -> d
  | None, None -> failwith ("missing --" ^ name)

(* Set-up time of shard-p2: a cold start of a fresh program process, from
   spawn until it is ready to take the first op. *)
let cold_start () =
  let t0 = Util.now () in
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "ready" |] in
  let line = In_channel.input_line ic in
  let s = Util.now () -. t0 in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some "ready" -> s
  | _ -> failwith "cold-start child failed"

let ready () =
  Shard_p2.ready ();
  print_endline "ready"

let write_trace ~workload recorders servers =
  let file = Filename.concat ".perfbench_run" ("trace-" ^ workload ^ ".json") in
  match Recorder.merge (List.map Recorder.to_perfetto recorders @ servers) with
  | Error e -> Util.say "trace not written: %s" e
  | Ok json ->
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (Ppj_obs.Json.to_string json));
      Util.say "perfetto trace: %s" file

let run () =
  let workload = arg "workload" None in
  if not (List.mem workload workloads) then failwith ("unknown workload " ^ workload);
  let seed = int_of_string (arg "seed" None) in
  let seconds = float_of_string (arg "seconds" None) in
  let trace = arg "trace" (Some "0") = "1" in
  let dir = Util.run_dir () in
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let spin_start = Util.spin_ms () in
  let tally, transfers, e2e, lines, layers =
    match workload with
    | "serve-mix" -> Serve_mix.run ~dir ~seed ~seconds ~trace
    | _ -> Shard_p2.run ~dir ~seed ~seconds ~trace ~cold_start
  in
  let spin_end = Util.spin_ms () in
  List.iter (Util.say "%s") lines;
  Util.say "host.spin_ms start %.2f end %.2f" spin_start spin_end;
  let failed = Oracle.failed tally in
  Util.say "failed_ratio %.6f (%d of %d ops: wrong %d, refused %d, hung %d, raised %d)"
    (float_of_int failed /. float_of_int (max 1 tally.Oracle.attempted))
    failed tally.Oracle.attempted tally.Oracle.wrong tally.Oracle.refused tally.Oracle.hung
    tally.Oracle.raised;
  Option.iter (Util.say "first failure: %s") tally.Oracle.first_failure;
  if transfers.Oracle.varied then Util.say "transfer count varied between ops of one shape";
  let correct = Oracle.passed tally transfers in
  let metrics =
    match layers with
    | None -> if trace then [] else e2e
    | Some (t, recorders, servers) ->
        Layers.set t "host.spin_ms" ((spin_start +. spin_end) /. 2.);
        write_trace ~workload recorders servers;
        Layers.to_metrics t
  in
  print_endline (Util.result_line ~correct ~attempted:tally.Oracle.attempted ~failed metrics);
  if correct then 0 else 1

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "" with
  | "run" -> exit (run ())
  | "ready" -> ready ()
  | "serve" ->
      Serve_mix.serve ~socket:(arg "socket" None) ~dir:(arg "dir" None)
        ~trace_out:(match arg "trace-out" (Some "") with "" -> None | f -> Some f)
  | _ ->
      prerr_endline "usage: ppjbench run|ready|serve ...";
      exit 2
