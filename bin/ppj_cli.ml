(* ppj: command-line driver for the privacy preserving join service.

     dune exec bin/ppj_cli.exe -- run --algorithm alg4 --na 20 --nb 30 --matches 12
     dune exec bin/ppj_cli.exe -- trace --algorithm alg5 --na 8 --nb 8
     dune exec bin/ppj_cli.exe -- privacy --algorithm alg6 --eps 1e-9
     dune exec bin/ppj_cli.exe -- cost --l 640000 --s 6400 --m 64 --eps 1e-20
     dune exec bin/ppj_cli.exe -- nstar --l 640000 --s 6400 --m 64 --eps 1e-20 *)

open Cmdliner
open Ppj_core
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module T = Ppj_relation.Tuple
module Rng = Ppj_crypto.Rng
module Co = Ppj_scpu.Coprocessor
module Trace = Ppj_scpu.Trace
module Recorder = Ppj_obs.Recorder
module Json = Ppj_obs.Json

let die fmt = Format.kasprintf (fun m -> Format.eprintf "error: %s@." m; exit 1) fmt

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's flight-recorder trace to $(docv) as Chrome/Perfetto trace-event \
           JSON (load it at ui.perfetto.dev or chrome://tracing).")

(* A recorder only when the user asked for an export. *)
let make_recorder ~name trace_out = Option.map (fun _ -> Recorder.create ~name ()) trace_out

(* One file for all of a command's recorders (a chaos soak records its
   client and server sides apart). *)
let write_trace trace_out recorders =
  match (trace_out, recorders) with
  | Some path, _ :: _ ->
      let json = Result.get_ok (Recorder.merge (List.map Recorder.to_perfetto recorders)) in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Json.to_string json);
          Out_channel.output_char oc '\n');
      Format.printf "trace -> %s@." path
  | _ -> ()

type algorithm = A1 | A1v | A2 | A3 | A4 | A5 | A6 | A7 | A8

let algorithm_conv =
  let parse = function
    | "alg1" -> Ok A1
    | "alg1v" -> Ok A1v
    | "alg2" -> Ok A2
    | "alg3" -> Ok A3
    | "alg4" -> Ok A4
    | "alg5" -> Ok A5
    | "alg6" -> Ok A6
    | "alg7" -> Ok A7
    | "alg8" -> Ok A8
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S (alg1|alg1v|alg2|alg3|alg4|alg5|alg6|alg7|alg8)" s))
  in
  let print ppf a =
    Format.pp_print_string ppf
      (match a with
      | A1 -> "alg1" | A1v -> "alg1v" | A2 -> "alg2" | A3 -> "alg3"
      | A4 -> "alg4" | A5 -> "alg5" | A6 -> "alg6" | A7 -> "alg7"
      | A8 -> "alg8")
  in
  Arg.conv (parse, print)

let algorithm_arg =
  Arg.(value & opt algorithm_conv A4 & info [ "algorithm"; "a" ] ~docv:"ALG" ~doc:"Join algorithm to run.")

let na_arg = Arg.(value & opt int 12 & info [ "na" ] ~doc:"Cardinality of relation A.")
let nb_arg = Arg.(value & opt int 18 & info [ "nb" ] ~doc:"Cardinality of relation B.")
let matches_arg = Arg.(value & opt int 10 & info [ "matches" ] ~doc:"Exact join-result size S.")
let mult_arg = Arg.(value & opt int 3 & info [ "mult" ] ~doc:"Maximum match multiplicity N.")
let m_arg = Arg.(value & opt int 4 & info [ "m" ] ~doc:"Coprocessor free memory in tuples.")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")
let eps_arg = Arg.(value & opt float 1e-9 & info [ "eps" ] ~doc:"Algorithm 6 privacy parameter.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Also print the run's metrics snapshot (per-region transfer counters, memory ledger, stats).")

(* Every --metrics export carries the same build/uptime/session gauges,
   so exports from different verbs line up in one monitoring plane. *)
let stamped_snapshot ?sessions_active snap =
  let reg = Ppj_obs.Registry.create () in
  Ppj_obs.Buildinfo.stamp ?sessions_active reg;
  Ppj_obs.Snapshot.union (Ppj_obs.Registry.snapshot reg) snap

let print_metrics ?sessions_active snap =
  Format.printf "@.metrics:@.%a@." Ppj_obs.Snapshot.pp (stamped_snapshot ?sessions_active snap)

let make_instance ?recorder ?faults ~na ~nb ~matches ~mult ~m ~seed () =
  let rng = Rng.create seed in
  let a, b = W.equijoin_pair rng ~na ~nb ~matches ~max_multiplicity:mult in
  Instance.create ?recorder ?faults ~m ~seed:(seed + 1) ~predicate:(P.equijoin2 "key" "key")
    [ a; b ]

let fault_plan_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault-plan" ] ~docv:"PLAN"
        ~doc:
          "Deterministic fault plan to inject, e.g. \
           'crash\\@t=150;checkpoint\\@every=32' or 'corrupt\\@t=40'.  Injected \
           crashes are survived by resuming from the plan's sealed \
           checkpoints; detected tampering aborts with a nonzero exit.")

let make_injector plan_str =
  match Ppj_fault.Plan.of_string plan_str with
  | Ok plan -> Ppj_fault.Injector.create plan
  | Error e ->
      Format.eprintf "error: bad --fault-plan: %s@." e;
      exit 2

let execute algorithm ~eps ~mult inst =
  match algorithm with
  | A1 -> Algorithm1.run inst ~n:mult
  | A1v -> Algorithm1.Variant.run inst ~n:mult
  | A2 -> Algorithm2.run inst ~n:mult ()
  | A3 -> Algorithm3.run inst ~n:mult ~attr_a:"key" ~attr_b:"key" ()
  | A4 -> Algorithm4.run inst ()
  | A5 -> Algorithm5.run inst
  | A6 -> fst (Algorithm6.run inst ~eps ())
  | A7 -> fst (Algorithm7.run inst ~attr_a:"key" ~attr_b:"key")
  | A8 -> fst (Algorithm8.run inst ~attr_a:"key" ~attr_b:"key")

let run_cmd =
  let run algorithm na nb matches mult m seed eps metrics fault_plan trace_out =
    let recorder = make_recorder ~name:"cli" trace_out in
    let faults = Option.map make_injector fault_plan in
    let inst = make_instance ?recorder ?faults ~na ~nb ~matches ~mult ~m ~seed () in
    let rec attempt resumes_left =
      match execute algorithm ~eps ~mult inst with
      | r -> r
      | exception Co.Crashed { transfer } ->
          if resumes_left = 0 then begin
            Format.eprintf "error: coprocessor kept crashing; giving up@.";
            exit 1
          end;
          Format.printf "coprocessor crashed at transfer %d; resuming from last checkpoint@."
            transfer;
          resume (resumes_left - 1)
      | exception Co.Tamper_detected msg ->
          Format.eprintf "TAMPER DETECTED: %s@." msg;
          exit 1
    (* The resume span hangs under the original join span, like the
       service's crash-resume path, so the exported tree stays connected. *)
    and resume resumes_left =
      match recorder with
      | None ->
          Instance.recover inst;
          attempt resumes_left
      | Some r ->
          Recorder.with_span r
            ?parent:(Instance.join_span inst)
            ~attrs:[ ("attempt", Recorder.int (Instance.resumes inst + 1)) ]
            "resume"
            (fun () ->
              Instance.recover inst;
              attempt resumes_left)
    in
    let run_join () =
      match recorder with
      | None -> attempt 8
      | Some r ->
          Recorder.with_span r "join" (fun () ->
              (match Recorder.current_span_id r with
              | Some id -> Instance.set_join_span inst id
              | None -> ());
              attempt 8)
    in
    let r = run_join () in
    write_trace trace_out (Option.to_list recorder);
    if Instance.resumes inst > 0 then
      Format.printf "(join completed after %d crash-resume(s))@.@." (Instance.resumes inst);
    Format.printf "@[<v>%a@,@,results:@," Report.pp r;
    List.iteri (fun i t -> if i < 20 then Format.printf "  %a@," T.pp t) r.Report.results;
    if List.length r.Report.results > 20 then Format.printf "  ... (%d total)@," (List.length r.Report.results);
    Format.printf "@]@.";
    if metrics then begin
      print_metrics r.Report.metrics;
      match faults with
      | Some inj ->
          Format.printf "@.fault metrics:@.%a@." Ppj_obs.Snapshot.pp
            (Ppj_obs.Registry.snapshot (Ppj_fault.Injector.registry inj))
      | None -> ()
    end;
    if List.length r.Report.results <> Instance.oracle_size inst then begin
      Format.eprintf "WARNING: result size differs from oracle!@.";
      exit 1
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a join algorithm on a synthetic workload and print the results.")
    Term.(const run $ algorithm_arg $ na_arg $ nb_arg $ matches_arg $ mult_arg $ m_arg $ seed_arg $ eps_arg $ metrics_arg $ fault_plan_arg $ trace_out_arg)

let trace_cmd =
  let run algorithm na nb matches mult m seed eps limit =
    let inst = make_instance ~na ~nb ~matches ~mult ~m ~seed () in
    ignore (execute algorithm ~eps ~mult inst);
    let trace = Co.trace (Instance.co inst) in
    Format.printf "trace length: %d@." (Trace.length trace);
    List.iteri
      (fun i e -> if i < limit then Format.printf "%6d  %a@." i Trace.pp_entry e)
      (Trace.to_list trace)
  in
  let limit_arg = Arg.(value & opt int 50 & info [ "limit" ] ~doc:"Entries to print.") in
  Cmd.v (Cmd.info "trace" ~doc:"Print the host-access trace the adversary observes.")
    Term.(const run $ algorithm_arg $ na_arg $ nb_arg $ matches_arg $ mult_arg $ m_arg $ seed_arg $ eps_arg $ limit_arg)

let privacy_cmd =
  let run algorithm na nb matches mult m eps variants =
    let runs =
      List.init variants (fun i ->
          fun () ->
            let rng = Rng.create (100 + i) in
            let a, b = W.equijoin_pair rng ~na ~nb ~matches ~max_multiplicity:mult in
            let inst =
              Instance.create ~m ~seed:777 ~predicate:(P.equijoin2 "key" "key") [ a; b ]
            in
            ignore (execute algorithm ~eps ~mult inst);
            Co.trace (Instance.co inst))
    in
    match Privacy.check ~runs with
    | Privacy.Indistinguishable ->
        Format.printf "PRIVACY PRESERVING: %d same-shape inputs, identical traces.@." variants
    | v ->
        Format.printf "LEAK DETECTED: %a@." Privacy.pp_verdict v;
        exit 1
  in
  let variants_arg = Arg.(value & opt int 4 & info [ "variants" ] ~doc:"Input variants to compare.") in
  Cmd.v
    (Cmd.info "privacy"
       ~doc:"Check Definition 1/3 empirically: equal traces across same-shape inputs.")
    Term.(const run $ algorithm_arg $ na_arg $ nb_arg $ matches_arg $ mult_arg $ m_arg $ eps_arg $ variants_arg)

let cost_cmd =
  let run l s m eps =
    Format.printf "@[<v>L=%d S=%d M=%d@," l s m;
    Format.printf "Algorithm 4 : %.4e tuples@," (Cost.alg4 ~l ~s);
    Format.printf "Algorithm 5 : %.4e tuples@," (Cost.alg5 ~l ~s ~m);
    Format.printf "Algorithm 6 : %.4e tuples (eps = %g)@," (Cost.alg6 ~l ~s ~m ~eps) eps;
    Format.printf "SMC [32]    : %.4e tuples@]@." (Cost.smc ~l ~s ())
  in
  let l = Arg.(value & opt int 640_000 & info [ "l" ] ~doc:"Cartesian-product size L.") in
  let s = Arg.(value & opt int 6_400 & info [ "s" ] ~doc:"Output size S.") in
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"Coprocessor memory M.") in
  let eps = Arg.(value & opt float 1e-20 & info [ "eps" ] ~doc:"Algorithm 6 epsilon.") in
  Cmd.v (Cmd.info "cost" ~doc:"Evaluate the closed-form communication costs.")
    Term.(const run $ l $ s $ m $ eps)

let nstar_cmd =
  let run l s m eps =
    let n_star = Hypergeom.n_star ~l ~s ~m ~eps in
    Format.printf "n* = %d  segments = %d  blemish bound at n* = %.3e@." n_star
      (Params.segments ~l ~n_star)
      (Hypergeom.blemish_bound ~l ~s ~n:n_star ~m)
  in
  let l = Arg.(value & opt int 640_000 & info [ "l" ] ~doc:"L.") in
  let s = Arg.(value & opt int 6_400 & info [ "s" ] ~doc:"S.") in
  let m = Arg.(value & opt int 64 & info [ "m" ] ~doc:"M.") in
  let eps = Arg.(value & opt float 1e-20 & info [ "eps" ] ~doc:"epsilon.") in
  Cmd.v (Cmd.info "nstar" ~doc:"Solve Eqn. 5.6 for the optimal segment size.")
    Term.(const run $ l $ s $ m $ eps)

let csv_join_cmd =
  let run path_a path_b attr_a attr_b algorithm m seed eps out =
    let read path name =
      match In_channel.with_open_text path In_channel.input_all with
      | text -> (
          match Ppj_relation.Csv_io.infer_schema text with
          | Error e -> Error e
          | Ok schema -> Ppj_relation.Csv_io.parse schema ~name text)
      | exception Sys_error e -> Error e
    in
    match (read path_a "A", read path_b "B") with
    | Error e, _ | _, Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
    | Ok a, Ok b ->
        let predicate = P.equijoin2 attr_a attr_b in
        let inst = Instance.create ~m ~seed ~predicate [ a; b ] in
        let mult = max 1 (Instance.max_matches inst) in
        let r = execute algorithm ~eps ~mult inst in
        let joined =
          Ppj_relation.Relation.make ~name:"result" (Instance.joined_schema inst)
            r.Report.results
        in
        (match out with
        | Some path ->
            Ppj_relation.Csv_io.save joined ~path;
            Format.printf "%d results -> %s (%d transfers)@."
              (List.length r.Report.results) path r.Report.transfers
        | None ->
            print_string (Ppj_relation.Csv_io.print joined);
            Format.eprintf "(%d transfers)@." r.Report.transfers)
  in
  let path_a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A.csv") in
  let path_b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B.csv") in
  let attr_a = Arg.(value & opt string "key" & info [ "attr-a" ] ~doc:"Join attribute of A.") in
  let attr_b = Arg.(value & opt string "key" & info [ "attr-b" ] ~doc:"Join attribute of B.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output CSV path.") in
  Cmd.v
    (Cmd.info "csv-join"
       ~doc:"Equijoin two CSV files through the privacy preserving service (schemas inferred).")
    Term.(const run $ path_a $ path_b $ attr_a $ attr_b $ algorithm_arg $ m_arg $ seed_arg $ eps_arg $ out)

(* --- networked deployment: serve / submit / fetch / gen -------------- *)

module Net = Ppj_net
module Channel = Ppj_scpu.Channel

let read_csv path ~name =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> (
      match Ppj_relation.Csv_io.infer_schema text with
      | Error e -> Error e
      | Ok schema -> Ppj_relation.Csv_io.parse schema ~name text)
  | exception Sys_error e -> Error e

let connect_with_retry ~wait path =
  let delay = 0.25 in
  let attempts = 1 + int_of_float (Float.max 0. wait /. delay) in
  let rec go n =
    match Net.Transport.connect_unix ~path () with
    | Ok t -> Ok t
    | Error e -> if n <= 1 then Error e else (Unix.sleepf delay; go (n - 1))
  in
  go attempts

let wait_arg =
  Arg.(
    value & opt float 10.
    & info [ "wait" ] ~doc:"Seconds to keep retrying the initial connection (0 = one attempt).")

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the service.")

let mac_key_arg =
  Arg.(
    value & opt string "ppj-demo-mac"
    & info [ "mac-key" ]
        ~doc:"Long-term MAC key rooting the handshake (must match between serve and clients).")

let id_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "id" ] ~docv:"ID" ~doc:"Party identity for this session.")

let contract_term =
  let make contract_id providers recipient predicate =
    { Channel.contract_id; providers; recipient; predicate }
  in
  let contract_id =
    Arg.(value & opt string "contract-1" & info [ "contract-id" ] ~doc:"Digital contract id.")
  in
  let providers =
    Arg.(
      value
      & opt (list string) [ "alice"; "bob" ]
      & info [ "providers" ] ~doc:"Comma-separated provider ids, in relation order.")
  in
  let recipient =
    Arg.(value & opt string "carol" & info [ "recipient" ] ~doc:"Result recipient id.")
  in
  let predicate =
    Arg.(
      value & opt string "eq(key)"
      & info [ "predicate" ] ~doc:"Contract predicate: eq(attr) | eq(a,b) | lt(a,b) | band(a,b,w).")
  in
  Term.(const make $ contract_id $ providers $ recipient $ predicate)

let print_client_metrics client =
  print_metrics (Ppj_obs.Registry.snapshot (Net.Client.registry client))

let log_level_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Emit structured key=value log lines on stderr at $(docv) \
           (debug|info|warn|error).  Silent when omitted.")

module Store = Ppj_store.Store

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Durable state directory (created if missing).  Contracts, uploads, join \
           checkpoints and NVRAM are journalled and fsynced there, so a killed server \
           restarted on the same $(docv) resumes mid-flight joins when clients retry.  \
           A rolled-back or unreadable $(docv) is refused at startup.")

let open_store ~registry ~mac_key = function
  | None -> None
  | Some dir -> (
      match Store.open_dir ~registry ~mac_key dir with
      | Ok (store, h) ->
          Format.printf
            "ppj serve: durable state %s (epoch %d, %d snapshot + %d journal records%s)@." dir
            h.Store.epoch h.Store.snapshot_records h.Store.journal_records
            (if h.Store.quarantined_bytes > 0 then
               Printf.sprintf ", quarantined %d byte(s) of torn tail" h.Store.quarantined_bytes
             else "");
          Some store
      | Error e -> die "state-dir %s refused: %s" dir (Store.error_message e))

(* Periodic post-mortem telemetry: every [interval] seconds of reactor
   time, atomically replace [dir]/stats.json with the current scrape, so
   a kill -9'd server leaves its last-known metrics behind. *)
let make_stats_tick ~server ~interval = function
  | None -> None
  | Some dir ->
      let last = ref 0. in
      Some
        (fun ~now ->
          if now -. !last >= interval then begin
            last := now;
            let _info, snap = Net.Server.scrape server in
            let tmp = Filename.concat dir "stats.json.tmp" in
            let path = Filename.concat dir "stats.json" in
            try
              Out_channel.with_open_bin tmp (fun oc ->
                  Out_channel.output_string oc
                    (Json.to_string (Ppj_obs.Snapshot.to_json snap));
                  Out_channel.output_char oc '\n');
              Sys.rename tmp path
            with Sys_error _ -> ()
          end)

let health_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "health-socket" ] ~docv:"PATH"
        ~doc:
          "Also listen on $(docv) for readiness/liveness probes: each connection is answered \
           with one JSON health line and closed — no handshake, no attestation, so an \
           orchestrator can gate on it without wire credentials.")

let stats_interval_arg =
  Arg.(
    value & opt float 5.
    & info [ "stats-interval" ]
        ~doc:
          "Seconds between periodic stats.json snapshots persisted into --state-dir (for \
           post-mortems after an unclean death).  Ignored without --state-dir.")

let serve_cmd =
  let run socket mac_key seed max_sessions metrics log_level trace_out fault_plan
      checkpoint_every state_dir max_conns idle_timeout max_queue_bytes backlog health_socket
      stats_interval =
    let logger =
      match log_level with
      | None -> Ppj_obs.Log.null
      | Some s -> (
          match Ppj_obs.Log.level_of_string s with
          | Ok level -> Ppj_obs.Log.create ~level ~name:"ppj.server" ()
          | Error e -> die "%s" e)
    in
    let recorder = make_recorder ~name:"server" trace_out in
    let faults = Option.map make_injector fault_plan in
    let registry = Ppj_obs.Registry.create () in
    let store = open_store ~registry ~mac_key state_dir in
    let server =
      Net.Server.create ~registry ~seed ~mac_key ?recorder ~logger ?faults ?checkpoint_every
        ?store ()
    in
    let limits =
      { Net.Reactor.default_limits with max_conns; idle_timeout; max_queue_bytes }
    in
    let reactor = Net.Reactor.create ~limits server in
    Format.printf "ppj serve: listening on %s@." socket;
    Option.iter (Format.printf "ppj serve: health probe on %s@.") health_socket;
    Format.print_flush ();
    let tick = make_stats_tick ~server ~interval:stats_interval state_dir in
    Net.Reactor.serve_unix reactor ~path:socket ?health_path:health_socket ?tick ~backlog
      ?max_sessions ();
    Format.printf "ppj serve: done after %d session(s)@." (Net.Server.sessions_closed server);
    Option.iter Store.close store;
    write_trace trace_out (Option.to_list recorder);
    if metrics then
      print_metrics
        ~sessions_active:(Net.Server.sessions_active server)
        (Ppj_obs.Registry.snapshot (Net.Server.registry server))
  in
  let max_sessions_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-sessions" ] ~doc:"Exit once this many sessions have closed.")
  in
  let checkpoint_every_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "checkpoint-every" ]
          ~doc:"Seal a recovery checkpoint every N coprocessor transfers.")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int Net.Reactor.default_limits.Net.Reactor.max_conns
      & info [ "max-conns" ]
          ~doc:"Admission cap: connections beyond this are refused with a typed unavailable.")
  in
  let idle_timeout_arg =
    Arg.(
      value
      & opt float Net.Reactor.default_limits.Net.Reactor.idle_timeout
      & info [ "idle-timeout" ]
          ~doc:"Seconds a connection may complete no frame before it is evicted.")
  in
  let max_queue_bytes_arg =
    Arg.(
      value
      & opt int Net.Reactor.default_limits.Net.Reactor.max_queue_bytes
      & info [ "max-queue-bytes" ]
          ~doc:"Per-connection outbound queue cap; a slow reader beyond it is shed.")
  in
  let backlog_arg =
    Arg.(value & opt int 1024 & info [ "backlog" ] ~doc:"Listen backlog for connect storms.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the join service as a server on a Unix-domain socket.  The same server hosts \
          one shard of a sharded deployment: start p of them and point submit --shards and \
          fetch --shards at their sockets.")
    Term.(
      const run $ socket_arg $ mac_key_arg $ seed_arg $ max_sessions_arg $ metrics_arg
      $ log_level_arg $ trace_out_arg $ fault_plan_arg $ checkpoint_every_arg $ state_dir_arg
      $ max_conns_arg $ idle_timeout_arg $ max_queue_bytes_arg $ backlog_arg
      $ health_socket_arg $ stats_interval_arg)

module Shard = Ppj_shard

let socket_opt_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path of the service.")

let shards_arg =
  Arg.(
    value & opt (list string) []
    & info [ "shards" ] ~docv:"SOCKETS"
        ~doc:
          "Comma-separated shard server socket paths.  Fans the operation out across all of \
           them (replicate partitioning) instead of talking to a single --socket.")

let make_shards ~wait paths =
  let sockets = Array.of_list paths in
  Shard.Shards.create ~p:(Array.length sockets) ~connect:(fun k ->
      connect_with_retry ~wait sockets.(k))

(* --socket and --shards are the single- and multi-server deployments of
   the same verb; exactly one must be given. *)
let deployment socket shards =
  match (socket, shards) with
  | Some s, [] -> `Single s
  | None, (_ :: _ as paths) -> `Sharded paths
  | Some _, _ :: _ -> die "--socket and --shards are mutually exclusive"
  | None, [] -> die "one of --socket or --shards is required"

let submit_cmd =
  let run socket shards mac_key id contract path metrics wait trace_out =
    match read_csv path ~name:id with
    | Error e -> die "%s" e
    | Ok rel -> (
        let schema = rel.Ppj_relation.Relation.schema in
        let report () =
          Format.printf "submitted %d tuples under %s as %s@."
            (Array.length rel.Ppj_relation.Relation.tuples)
            contract.Channel.contract_id id
        in
        match deployment socket shards with
        | `Single socket -> (
            match connect_with_retry ~wait socket with
            | Error e -> die "%s" e
            | Ok transport ->
                let recorder = make_recorder ~name:"client" trace_out in
                let client = Net.Client.create ?recorder transport in
                let rng = Rng.create (Hashtbl.hash (id, path)) in
                let outcome =
                  Net.Client.submit_relation client ~rng ~id ~mac_key ~contract ~schema rel
                in
                if metrics then print_client_metrics client;
                Net.Client.close client;
                write_trace trace_out (Option.to_list recorder);
                (match outcome with Ok () -> report () | Error e -> die "%s" e))
        | `Sharded paths -> (
            let sh = make_shards ~wait paths in
            match
              Shard.Coordinator.submit_wire ~shards:sh
                ~seed:(Hashtbl.hash (id, path))
                ~mac_key ~contract ~id ~schema rel
            with
            | Error e -> die "%s" e
            | Ok () ->
                report ();
                Format.printf "replicated across %d shard(s)@." (List.length paths)))
  in
  let path_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"REL.csv") in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a CSV relation to a running service as a data provider (attest, handshake, \
             bind the contract, upload encrypted).  With --shards, replicate the sealed upload \
             to every shard server.")
    Term.(
      const run $ socket_opt_arg $ shards_arg $ mac_key_arg $ id_arg $ contract_term $ path_arg
      $ metrics_arg $ wait_arg $ trace_out_arg)

let fetch_cmd =
  let run socket shards mac_key id contract algorithm m seed eps mult attr_a attr_b out metrics
      wait trace_out =
    let algorithm =
      match algorithm with
      | A1 -> Service.Alg1 { n = mult }
      | A1v -> die "alg1v is not exposed over the wire (use alg1)"
      | A2 -> Service.Alg2 { n = mult }
      | A3 -> Service.Alg3 { n = mult; attr_a; attr_b }
      | A4 -> Service.Alg4
      | A5 -> Service.Alg5
      | A6 -> Service.Alg6 { eps }
      | A7 -> Service.Alg7 { attr_a; attr_b }
      | A8 -> Service.Alg8 { attr_a; attr_b }
    in
    let config = { Service.m; seed; algorithm } in
    let deliver schema tuples =
      let joined = Ppj_relation.Relation.make ~name:"result" schema tuples in
      match out with
      | Some path ->
          Ppj_relation.Csv_io.save joined ~path;
          Format.printf "%d results -> %s@." (List.length tuples) path
      | None -> print_string (Ppj_relation.Csv_io.print joined)
    in
    match deployment socket shards with
    | `Single socket -> (
        match connect_with_retry ~wait socket with
        | Error e -> die "%s" e
        | Ok transport -> (
            let recorder = make_recorder ~name:"client" trace_out in
            let client = Net.Client.create ?recorder transport in
            let rng = Rng.create (Hashtbl.hash (id, "fetch")) in
            let outcome = Net.Client.fetch_result client ~rng ~id ~mac_key ~contract config in
            if metrics then print_client_metrics client;
            Net.Client.close client;
            write_trace trace_out (Option.to_list recorder);
            match outcome with
            | Error e -> die "%s" e
            | Ok (schema, tuples) -> deliver schema tuples))
    | `Sharded paths -> (
        let inner =
          match algorithm with
          | Service.Alg4 | Service.Alg5 | Service.Alg6 _ | Service.Alg8 _ -> algorithm
          | _ -> die "--shards supports alg4, alg5, alg6 and alg8 only"
        in
        let sh = make_shards ~wait paths in
        let shard_config =
          { Shard.Coordinator.p = List.length paths;
            m;
            seed;
            inner;
            strategy = Shard.Partitioner.Replicate;
          }
        in
        let shard_metrics = Shard.Metrics.create () in
        match
          Shard.Coordinator.fetch_wire ~metrics:shard_metrics ~shards:sh
            ~seed:(Hashtbl.hash (id, "fetch"))
            ~mac_key ~contract shard_config
        with
        | Error e -> die "%s" e
        | Ok o ->
            if metrics then
              print_metrics (Ppj_obs.Registry.snapshot (Shard.Metrics.registry shard_metrics));
            deliver o.Shard.Coordinator.schema o.Shard.Coordinator.tuples)
  in
  let attr_a = Arg.(value & opt string "key" & info [ "attr-a" ] ~doc:"Join attribute of A.") in
  let attr_b = Arg.(value & opt string "key" & info [ "attr-b" ] ~doc:"Join attribute of B.") in
  let out = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output CSV path.") in
  Cmd.v
    (Cmd.info "fetch"
       ~doc:"As the contract's recipient, ask a running service to execute the join and download \
             the sealed result.  With --shards, execute one slice per shard server and merge \
             the sealed results obliviously.")
    Term.(
      const run $ socket_opt_arg $ shards_arg $ mac_key_arg $ id_arg $ contract_term
      $ algorithm_arg $ m_arg $ seed_arg $ eps_arg $ mult_arg $ attr_a $ attr_b $ out
      $ metrics_arg $ wait_arg $ trace_out_arg)

let gen_cmd =
  let run na nb matches mult seed out_a out_b =
    let rng = Rng.create seed in
    let a, b = W.equijoin_pair rng ~na ~nb ~matches ~max_multiplicity:mult in
    Ppj_relation.Csv_io.save a ~path:out_a;
    Ppj_relation.Csv_io.save b ~path:out_b;
    Format.printf "wrote %s (%d tuples) and %s (%d tuples)@." out_a na out_b nb
  in
  let out_a = Arg.(required & pos 0 (some string) None & info [] ~docv:"A.csv") in
  let out_b = Arg.(required & pos 1 (some string) None & info [] ~docv:"B.csv") in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic equijoin CSV pair (for demos and smoke tests).")
    Term.(const run $ na_arg $ nb_arg $ matches_arg $ mult_arg $ seed_arg $ out_a $ out_b)

let chaos_cmd =
  let run runs seed0 verbose trace_out =
    let reg = Ppj_obs.Registry.create () in
    let recorder = make_recorder ~name:"chaos" trace_out in
    let server_recorder = make_recorder ~name:"chaos-server" trace_out in
    let results =
      Net.Chaos.soak ~registry:reg ~seed0 ~runs
        (Net.Chaos.printing ~verbose (Net.Chaos.wire ?recorder ?server_recorder))
    in
    Format.printf "%a" (Net.Chaos.pp_report ~name:"chaos") results;
    write_trace trace_out (Option.to_list recorder @ Option.to_list server_recorder);
    if (Net.Chaos.tally results).Net.Chaos.wrong > 0 then exit 1
  in
  let runs_arg = Arg.(value & opt int 50 & info [ "runs" ] ~doc:"Seeded fault plans to soak.") in
  let seed0_arg = Arg.(value & opt int 1 & info [ "seed0" ] ~doc:"First seed of the soak.") in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every run, not only unsafe ones.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Soak the client/server join under random seeded fault plans: every run must end in \
          the oracle's answer or a typed refusal.  Exits nonzero if any run returns a wrong \
          answer.")
    Term.(const run $ runs_arg $ seed0_arg $ verbose_arg $ trace_out_arg)

let loadtest_cmd =
  let run socket sessions rate session_deadline seed =
    let spec =
      { Net.Loadgen.default_spec with
        sessions;
        rate = (if rate <= 0. then infinity else rate);
        session_deadline;
        seed;
      }
    in
    Format.printf "ppj loadtest: %d open-loop session(s) against %s@." sessions socket;
    Format.print_flush ();
    match Net.Loadgen.run ~spec ~path:socket () with
    | Error e -> die "%s" e
    | Ok stats ->
        Format.printf "%a@." Net.Loadgen.pp_stats stats;
        if stats.Net.Loadgen.wrong > 0 || stats.Net.Loadgen.hung > 0 then exit 1
  in
  let sessions_arg =
    Arg.(value & opt int 200 & info [ "sessions" ] ~doc:"Concurrent recipient sessions to drive.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~doc:"Open-loop arrivals per second (0 = one burst).")
  in
  let deadline_arg =
    Arg.(
      value & opt float 120.
      & info [ "session-deadline" ] ~doc:"Seconds before an unconcluded session counts as hung.")
  in
  Cmd.v
    (Cmd.info "loadtest"
       ~doc:
         "Drive an open-loop concurrent-session load against a running serve (started with \
          --mac-key loadtest-mac-key) and report joins/sec and p50/p95/p99 latency.  Exits \
          nonzero on any wrong-answer or hung session.")
    Term.(const run $ socket_arg $ sessions_arg $ rate_arg $ deadline_arg $ seed_arg)

(* --- durable state: store-check / restart-chaos ----------------------- *)

module Journal = Ppj_store.Journal
module Record = Ppj_store.Record

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let store_check_cmd =
  let run dir mac_key =
    let r = Store.check ~mac_key dir in
    let h = r.Store.r_health in
    let opt f = function None -> Json.Null | Some v -> f v in
    let json =
      Json.Obj
        [ ("ok", Json.Bool r.Store.r_ok);
          ("error", opt (fun e -> Json.Str e) r.Store.r_error);
          ("snapshot_epoch", Json.Int r.Store.r_snapshot_epoch);
          ("journal_epoch", opt (fun e -> Json.Int e) r.Store.r_journal_epoch);
          ("snapshot_bytes", Json.Int r.Store.r_snapshot_bytes);
          ("journal_bytes", Json.Int r.Store.r_journal_bytes);
          ("snapshot_records", Json.Int h.Store.snapshot_records);
          ("journal_records", Json.Int h.Store.journal_records);
          ("journal_discarded", Json.Int h.Store.journal_discarded);
          ("quarantined_records", Json.Int h.Store.quarantined_records);
          ("quarantined_tail_bytes", Json.Int h.Store.quarantined_bytes);
          ("contracts", Json.Int r.Store.r_contracts);
          ("submissions", Json.Int r.Store.r_submissions);
          ("checkpoints", Json.Int r.Store.r_checkpoints);
          ("results", Json.Int r.Store.r_results);
          ("nvram", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) r.Store.r_nvram));
        ]
    in
    print_endline (Json.to_string json);
    if not r.Store.r_ok then exit 1
  in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"State directory to validate.")
  in
  Cmd.v
    (Cmd.info "store-check"
       ~doc:
         "Validate a durable state directory offline and print a deterministic JSON report: \
          epochs, record counts per kind, NVRAM counters, and any quarantined tail.  Exits \
          nonzero when the directory must be refused (rollback or unreadable state) — the \
          same verdict a restarting server would reach.")
    Term.(const run $ dir_arg $ mac_key_arg)

let restart_chaos_cmd =
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  let flip_byte path off =
    let s = In_channel.with_open_bin path In_channel.input_all in
    let b = Bytes.of_string s in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)
  in
  let plain_meta epoch = "\x00" ^ Record.encode (Record.Meta { format = 1; epoch }) in
  let fork_server ?fault_plan ~socket ~state_dir ~mac_key ~checkpoint_every () =
    Format.print_flush ();
    match Unix.fork () with
    | 0 ->
        let faults = Option.map make_injector fault_plan in
        let store =
          match Store.open_dir ~mac_key state_dir with
          | Ok (s, _) -> s
          | Error e ->
              Format.eprintf "restart-chaos server: state-dir refused: %s@."
                (Store.error_message e);
              Stdlib.exit 3
        in
        let server = Net.Server.create ~seed:5 ~mac_key ?faults ~checkpoint_every ~store () in
        let reactor = Net.Reactor.create server in
        Net.Reactor.serve_unix reactor ~path:socket ();
        Store.close store;
        Stdlib.exit 0
    | pid -> pid
  in
  (* One seeded run: kill the real server process mid-join (or, when the
     join outruns the planned transfer, after delivery), restart it on
     the same state directory and require the oracle's answer — or a
     typed refusal — from the recovered process.  Never a wrong answer,
     never a corrupted store. *)
  let run_one ~checkpoint_every ~mac_key seed =
    let tmp = Filename.get_temp_dir_name () in
    let tag = Printf.sprintf "ppj-restart-%d-%d" (Unix.getpid ()) seed in
    let state_dir = Filename.concat tmp tag in
    let socket = Filename.concat tmp (tag ^ ".sock") in
    rm_rf state_dir;
    let rng = Rng.create (2 * seed + 1) in
    let a, b = W.equijoin_pair rng ~na:10 ~nb:14 ~matches:8 ~max_multiplicity:3 in
    let schema = a.Ppj_relation.Relation.schema in
    let contract =
      { Channel.contract_id = Printf.sprintf "restart-%d" seed;
        providers = [ "alice"; "bob" ];
        recipient = "carol";
        predicate = "eq(key,key)";
      }
    in
    let config = { Service.m = 4; seed = seed + 7; algorithm = Service.Alg5 } in
    let oracle =
      match Net.Chaos.oracle config ~contract [ (schema, a); (schema, b) ] with
      | Ok o -> o
      | Error e -> die "restart-chaos %s" e
    in
    let with_client k =
      match connect_with_retry ~wait:10. socket with
      | Error e -> Error e
      | Ok tr ->
          let c = Net.Client.create tr in
          Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () -> k c)
    in
    let submit id rel =
      with_client (fun c ->
          Net.Client.submit_relation c
            ~rng:(Rng.create (seed + Hashtbl.hash id))
            ~id ~mac_key ~contract ~schema rel)
    in
    let fetch () =
      with_client (fun c ->
          Net.Client.fetch_result c ~rng:(Rng.create (seed + 99)) ~id:"carol" ~mac_key ~contract
            config)
    in
    let kill_at = 4 + (seed mod 10) in
    let pid1 =
      fork_server
        ~fault_plan:(Printf.sprintf "kill9@t=%d" kill_at)
        ~socket ~state_dir ~mac_key ~checkpoint_every ()
    in
    let fail fmt =
      Format.kasprintf
        (fun m ->
          (try Unix.kill pid1 Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid1);
          rm_rf state_dir;
          die "%s" m)
        fmt
    in
    (match submit "alice" a with Ok () -> () | Error e -> fail "seed %d: submit alice: %s" seed e);
    (match submit "bob" b with Ok () -> () | Error e -> fail "seed %d: submit bob: %s" seed e);
    let first = fetch () in
    let mid_execute_kill = Result.is_error first in
    (* The join outran the planned kill: the result is already durable —
       SIGKILL anyway and require the restarted process to re-seal it. *)
    if not mid_execute_kill then (
      try Unix.kill pid1 Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid1);
    let pid2 = fork_server ~socket ~state_dir ~mac_key ~checkpoint_every () in
    let second = fetch () in
    (try Unix.kill pid2 Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid2);
    let report = Store.check ~mac_key state_dir in
    let outcome =
      if not report.Store.r_ok then
        Net.Chaos.Wrong
          (Printf.sprintf "store refused after run: %s"
             (Option.value ~default:"?" report.Store.r_error))
      else Net.Chaos.judge ~expected:oracle (Result.map snd second)
    in
    (match outcome with
    | Net.Chaos.Wrong _ -> ()  (* keep the state dir for post-mortem *)
    | _ -> rm_rf state_dir);
    (try Sys.remove socket with Sys_error _ -> ());
    let killed = if mid_execute_kill then 1 else 0 in
    { Net.Chaos.seed;
      plan =
        Printf.sprintf "kill9@t=%d %s" kill_at
          (if mid_execute_kill then "mid-execute" else "post-result");
      outcome;
      crashes = killed;
      injected = killed;
    }
  in
  (* Doctored-state legs: every tampered directory must be detected —
     quarantined (recover-to-prefix) or refused outright — never read as
     if it were intact. *)
  let detection_legs ~mac_key =
    let tmp = Filename.get_temp_dir_name () in
    let fresh tag =
      let dir = Filename.concat tmp (Printf.sprintf "ppj-leg-%s-%d" tag (Unix.getpid ())) in
      rm_rf dir;
      dir
    in
    let populate dir =
      match Store.open_dir ~mac_key dir with
      | Error e -> die "restart-chaos leg: %s" (Store.error_message e)
      | Ok (s, _) ->
          List.iter
            (fun (d, body) ->
              match Store.put_contract s ~digest:d body with
              | Ok () -> ()
              | Error e -> die "restart-chaos leg: %s" (Store.append_error_message e))
            [ ("digest-a", String.make 64 'a'); ("digest-b", String.make 64 'b') ];
          Store.close s
    in
    let journal dir = Filename.concat dir "journal.bin" in
    let size p = (Unix.stat p).Unix.st_size in
    (* Forged rollback: a journal generation ahead of the snapshot proves
       the snapshot was rolled back — refuse. *)
    let rolled = fresh "rollback" in
    Unix.mkdir rolled 0o700;
    (match
       ( Journal.write_atomic (Filename.concat rolled "snapshot.bin") [ plain_meta 2 ],
         Journal.write_atomic (journal rolled) [ plain_meta 3 ] )
     with
    | Ok (), Ok () -> ()
    | Error e, _ | _, Error e -> die "restart-chaos leg: %s" e);
    let r = Store.check ~mac_key rolled in
    if r.Store.r_ok then die "restart-chaos: forged rollback was not refused";
    (match r.Store.r_error with
    | Some e when contains ~sub:"rollback" e -> ()
    | e -> die "restart-chaos: rollback refusal missing: %s" (Option.value ~default:"ok" e));
    rm_rf rolled;
    (* Truncation: a torn tail is quarantined or refused, never applied. *)
    let trunc = fresh "truncate" in
    populate trunc;
    Journal.truncate_file (journal trunc) (size (journal trunc) - 3);
    let r = Store.check ~mac_key trunc in
    if r.Store.r_ok && r.Store.r_health.Store.quarantined_bytes = 0 then
      die "restart-chaos: truncated journal read back as intact";
    rm_rf trunc;
    (* Bit-flip: flipping one sealed byte must fail authentication. *)
    let flip = fresh "bitflip" in
    populate flip;
    flip_byte (journal flip) (size (journal flip) - 5);
    let r = Store.check ~mac_key flip in
    if
      r.Store.r_ok
      && r.Store.r_health.Store.quarantined_records = 0
      && r.Store.r_health.Store.quarantined_bytes = 0
    then die "restart-chaos: bit-flipped journal read back as intact";
    rm_rf flip;
    Format.printf "detection: forged-rollback refused, truncation quarantined, bit-flip \
                   quarantined@."
  in
  let run runs seed0 checkpoint_every mac_key verbose =
    let results =
      Net.Chaos.soak ~seed0 ~runs
        (Net.Chaos.printing ~verbose (run_one ~checkpoint_every ~mac_key))
    in
    detection_legs ~mac_key;
    Format.printf "%a" (Net.Chaos.pp_report ~name:"restart-chaos") results;
    let t = Net.Chaos.tally results in
    if t.Net.Chaos.wrong > 0 || t.Net.Chaos.correct = 0 then exit 1
  in
  let runs_arg =
    Arg.(value & opt int 5 & info [ "runs" ] ~doc:"Seeded kill -9 restart runs to soak.")
  in
  let seed0_arg = Arg.(value & opt int 1 & info [ "seed0" ] ~doc:"First seed of the soak.") in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 3
      & info [ "checkpoint-every" ]
          ~doc:"Seal (and persist) a recovery checkpoint every N coprocessor transfers.")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every run, not only unsafe ones.")
  in
  Cmd.v
    (Cmd.info "restart-chaos"
       ~doc:
         "Process-level durability soak: fork the real server with a seeded kill -9 fault \
          mid-join, restart it on the same --state-dir and require the recovered process to \
          deliver the oracle's answer (or a typed refusal) to a retrying client.  Also \
          proves doctored state directories — forged rollback, truncation, bit-flips — are \
          detected and refused.  Exits nonzero on any wrong answer or undetected tampering.")
    Term.(const run $ runs_arg $ seed0_arg $ checkpoint_every_arg $ mac_key_arg $ verbose_arg)

(* --- sharded deployment: shardtest ------------------------------------ *)

let shardtest_cmd =
  (* The CI smoke: fork p real shard-server processes on Unix sockets,
     drive a sharded join through them and diff against the sequential
     single-coprocessor oracle. *)
  let run p na nb matches mult m seed =
    if p < 1 then die "p must be positive";
    let mac_key = "shardtest-mac" in
    let inner = Service.Alg5 in
    let rng = Rng.create seed in
    let a, b = W.equijoin_pair rng ~na ~nb ~matches ~max_multiplicity:mult in
    let schema = a.Ppj_relation.Relation.schema in
    let contract =
      { Channel.contract_id = "shardtest-contract";
        providers = [ "alice"; "bob" ];
        recipient = "carol";
        predicate = "eq(key,key)";
      }
    in
    let sockets =
      List.init p (fun k ->
          Filename.concat (Filename.get_temp_dir_name ())
            (Printf.sprintf "ppj-shardtest-%d-%d.sock" (Unix.getpid ()) k))
    in
    List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) sockets;
    let children =
      List.map
        (fun socket ->
          match Unix.fork () with
          | 0 ->
              let server = Net.Server.create ~seed:5 ~mac_key () in
              let reactor = Net.Reactor.create server in
              Net.Reactor.serve_unix reactor ~path:socket ();
              Stdlib.exit 0
          | pid -> pid)
        sockets
    in
    let cleanup () =
      List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) children;
      List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) children;
      List.iter (fun s -> try Sys.remove s with Sys_error _ -> ()) sockets
    in
    let oracle =
      match
        Net.Chaos.oracle { Service.m; seed; algorithm = inner } ~contract
          [ (schema, a); (schema, b) ]
      with
      | Ok o -> o
      | Error e ->
          cleanup ();
          die "%s" e
    in
    let shards =
      let arr = Array.of_list sockets in
      Shard.Shards.create ~p ~connect:(fun k -> connect_with_retry ~wait:10. arr.(k))
    in
    let config =
      { Shard.Coordinator.p; m; seed; inner; strategy = Shard.Partitioner.Replicate }
    in
    let result =
      Shard.Coordinator.run_wire ~shard_attempts:2 ~shards ~seed:(seed + 17) ~mac_key ~contract
        ~providers:[ ("alice", schema, a); ("bob", schema, b) ]
        config
    in
    cleanup ();
    match result with
    | Error e -> die "sharded join failed: %s" e
    | Ok o ->
        (match Net.Chaos.judge ~expected:oracle (Ok o.Shard.Coordinator.tuples) with
        | Net.Chaos.Correct -> ()
        | v -> die "shardtest: %s" (Net.Chaos.outcome_to_string v));
        Format.printf
          "shardtest: %d-shard join over %d process(es) matches the oracle (%d tuples); \
           per-shard transfers [%s], merge %d slots / %d comparators@."
          p p (List.length oracle)
          (String.concat "; "
             (Array.to_list (Array.map string_of_int o.Shard.Coordinator.wire_per_shard_transfers)))
          o.Shard.Coordinator.wire_merge.Shard.Merge.slots
          o.Shard.Coordinator.wire_merge.Shard.Merge.comparators
  in
  let p_arg = Arg.(value & opt int 2 & info [ "p" ] ~doc:"Shard servers to fork.") in
  Cmd.v
    (Cmd.info "shardtest"
       ~doc:"Smoke-test the sharded deployment: fork p shard servers on Unix-domain sockets, \
             run one sharded join through the coordinator and diff the result against the \
             single-coprocessor oracle.  Exits nonzero on any mismatch.")
    Term.(const run $ p_arg $ na_arg $ nb_arg $ matches_arg $ mult_arg $ m_arg $ seed_arg)

let trace_check_cmd =
  let run files require_shared merged_out =
    let read path =
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error e -> die "%s" e
      | text -> (
          match Json.of_string text with
          | Error e -> die "%s: not JSON: %s" path e
          | Ok j -> (
              match Recorder.events_of j with
              | Error e -> die "%s: %s" path e
              | Ok [] -> die "%s: trace has no events" path
              | Ok events -> (path, j, events)))
    in
    let traces = List.map read files in
    List.iter
      (fun (path, _, events) -> Format.printf "%s: %d event(s)@." path (List.length events))
      traces;
    let ids_of events =
      List.filter_map
        (fun e ->
          match Option.bind (Json.member "args" e) (Json.member "trace_id") with
          | Some (Json.Str id) -> Some id
          | _ -> None)
        events
      |> List.sort_uniq String.compare
    in
    let per_file = List.map (fun (_, _, events) -> ids_of events) traces in
    (match List.sort_uniq String.compare (List.concat per_file) with
    | [] -> die "no span carries a trace id"
    | [ id ] -> Format.printf "trace id: %s@." id
    | ids -> Format.printf "%d distinct trace ids@." (List.length ids));
    (if require_shared then
       match List.filter (fun id -> List.for_all (List.mem id) per_file) (List.hd per_file) with
       | [] -> die "expected a trace id shared by every file, found none"
       | shared -> Format.printf "shared by every file: %s@." (String.concat ", " shared));
    match merged_out with
    | None -> ()
    | Some path -> (
        match Recorder.merge (List.map (fun (_, j, _) -> j) traces) with
        | Error e -> die "merge: %s" e
        | Ok merged ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Json.to_string merged);
                Out_channel.output_char oc '\n');
            Format.printf "merged %d trace(s) -> %s@." (List.length traces) path)
  in
  let files_arg = Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE.json") in
  let require_shared_arg =
    Arg.(
      value & flag
      & info [ "require-shared-trace" ]
          ~doc:
            "Fail unless some trace id appears in every file — i.e. the files hold two \
             sides of one propagated trace.")
  in
  let merged_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "merged-out" ] ~docv:"FILE"
          ~doc:"Also write the concatenation of all input traces to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate exported flight-recorder traces: well-formed trace-event JSON, non-empty, \
          and (optionally) sharing one propagated trace id.  Useful in CI before uploading \
          trace artifacts.")
    Term.(const run $ files_arg $ require_shared_arg $ merged_out_arg)

(* --- telemetry plane: stats / top / health ---------------------------- *)

module Wire = Ppj_net.Wire

let stats_info_to_json ?shard (i : Wire.stats_info) =
  Json.Obj
    ((match shard with Some k -> [ ("shard", Json.Int k) ] | None -> [])
    @ [ ("server_version", Json.Str i.Wire.server_version);
        ("wire_version", Json.Int i.Wire.wire_version);
        ("uptime_seconds", Json.Float i.Wire.uptime_seconds);
        ("sessions_active", Json.Int i.Wire.sessions_active);
        ("sessions_closed", Json.Int i.Wire.sessions_closed);
        ("conns_live", Json.Int i.Wire.conns_live);
        ("queue_bytes", Json.Int i.Wire.queue_bytes);
        ( "store",
          match i.Wire.store with
          | Wire.Store_none -> Json.Null
          | Wire.Store_open { epoch; sealed } ->
              Json.Obj [ ("epoch", Json.Int epoch); ("sealed", Json.Bool sealed) ] );
        ("ready", Json.Bool i.Wire.ready)
      ])

let stats_format_arg =
  Arg.(
    value
    & opt (enum [ ("json", `Json); ("prometheus", `Prometheus); ("pretty", `Pretty) ]) `Json
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: json (health + snapshot, machine-readable), prometheus \
              (exposition text for a scrape endpoint), or pretty.")

let emit_stats format infos snap =
  match format with
  | `Json ->
      print_endline
        (Json.to_string
           (Json.Obj
              [ ( "health",
                  Json.List (List.map (fun (shard, i) -> stats_info_to_json ?shard i) infos) );
                ("snapshot", Ppj_obs.Snapshot.to_json snap)
              ]))
  | `Prometheus -> print_string (Ppj_obs.Snapshot.to_prometheus snap)
  | `Pretty ->
      List.iter
        (fun (shard, i) ->
          Format.printf "%s%s v%s wire=%d up=%.1fs sessions=%d/%d conns=%d queued=%dB%s@."
            (match shard with Some k -> Printf.sprintf "shard %d: " k | None -> "")
            (if i.Wire.ready then "ready" else "degraded")
            i.Wire.server_version i.Wire.wire_version i.Wire.uptime_seconds
            i.Wire.sessions_active i.Wire.sessions_closed i.Wire.conns_live i.Wire.queue_bytes
            (match i.Wire.store with
            | Wire.Store_none -> ""
            | Wire.Store_open { epoch; sealed } ->
                Printf.sprintf " store(epoch=%d%s)" epoch (if sealed then ",sealed" else "")))
        infos;
      Format.printf "@.%a@." Ppj_obs.Snapshot.pp snap

let scrape_single ~wait socket =
  match connect_with_retry ~wait socket with
  | Error e -> die "%s" e
  | Ok transport ->
      let client = Net.Client.create transport in
      let out = Net.Client.stats client in
      Net.Client.close client;
      (match out with Error e -> die "%s" e | Ok v -> v)

let stats_cmd =
  let run socket shards format wait =
    match deployment socket shards with
    | `Single socket ->
        let info, snap = scrape_single ~wait socket in
        emit_stats format [ (None, info) ] snap
    | `Sharded paths -> (
        let sh = make_shards ~wait paths in
        match Shard.Coordinator.stats ~shards:sh () with
        | Error e -> die "%s" e
        | Ok f ->
            emit_stats format
              (List.map (fun (k, i) -> (Some k, i)) f.Shard.Coordinator.shard_infos)
              f.Shard.Coordinator.fleet_snapshot)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Scrape a running service's live telemetry over the wire (no handshake — stats are \
          answered in any session phase).  With --shards, scrape every shard server and merge \
          the snapshots: per-shard series labelled shard=K plus an unlabelled fleet rollup \
          where counters sum and latency reservoirs merge into fleet-wide p50/p95/p99.")
    Term.(const run $ socket_opt_arg $ shards_arg $ stats_format_arg $ wait_arg)

let counter_of snap name =
  match Ppj_obs.Snapshot.find snap name with
  | Some { Ppj_obs.Snapshot.value = Ppj_obs.Snapshot.Counter c; _ } -> c
  | _ -> 0

let summary_of snap name =
  match Ppj_obs.Snapshot.find snap name with
  | Some { Ppj_obs.Snapshot.value = Ppj_obs.Snapshot.Summary s; _ } -> Some s
  | _ -> None

let top_cmd =
  let run socket interval iterations wait =
    match connect_with_retry ~wait socket with
    | Error e -> die "%s" e
    | Ok transport ->
        let client = Net.Client.create transport in
        let prev = ref None in
        let header () =
          Format.printf "%8s %8s %9s %8s %8s %8s  %s@." "UP" "JOINS" "JOINS/S" "SHED" "EVICT"
            "SESS" "JOIN LATENCY p50/p95/p99"
        in
        let once () =
          match Net.Client.stats client with
          | Error e -> die "%s" e
          | Ok (info, snap) ->
              let joins = counter_of snap "net.server.joins.executed" in
              let shed =
                counter_of snap "net.server.admission.shed"
                + counter_of snap "net.server.overload.shed"
                + counter_of snap "net.server.store.shed"
              in
              let evicted =
                counter_of snap "net.server.evicted.idle"
                + counter_of snap "net.server.evicted.malformed"
              in
              let now = Unix.gettimeofday () in
              let rate =
                match !prev with
                | Some (t0, j0) when now > t0 -> float_of_int (joins - j0) /. (now -. t0)
                | _ -> 0.
              in
              prev := Some (now, joins);
              let lat =
                match summary_of snap "net.server.join.seconds" with
                | None -> "-"
                | Some s ->
                    Printf.sprintf "%.1f/%.1f/%.1f ms"
                      (1000. *. s.Ppj_obs.Histogram.p50)
                      (1000. *. s.Ppj_obs.Histogram.p95)
                      (1000. *. s.Ppj_obs.Histogram.p99)
              in
              Format.printf "%7.1fs %8d %9.2f %8d %8d %8d  %s@." info.Wire.uptime_seconds
                joins rate shed evicted info.Wire.sessions_active lat;
              Format.print_flush ()
        in
        header ();
        let rec loop i =
          once ();
          if iterations = 0 || i + 1 < iterations then begin
            Unix.sleepf interval;
            loop (i + 1)
          end
        in
        loop 0;
        Net.Client.close client
  in
  let interval_arg =
    Arg.(value & opt float 2. & info [ "interval" ] ~doc:"Seconds between refreshes.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~doc:"Stop after this many refreshes (0 = run until killed).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Periodically scrape a running service and print one line per refresh: uptime, join \
          throughput, shed/eviction counters and join latency quantiles.")
    Term.(const run $ socket_arg $ interval_arg $ iterations_arg $ wait_arg)

let health_cmd =
  let run socket wait =
    let deadline = Unix.gettimeofday () +. wait in
    let rec dial () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if Unix.gettimeofday () < deadline then begin
            Unix.sleepf 0.1;
            dial ()
          end
          else die "health: %s: %s" socket (Unix.error_message e)
    in
    let fd = dial () in
    let buf = Buffer.create 256 in
    let b = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd b 0 4096 with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf b 0 n;
          drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    in
    drain ();
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let body = String.trim (Buffer.contents buf) in
    print_endline body;
    match Json.of_string body with
    | Error e -> die "health: undecodable reply: %s" e
    | Ok j -> (
        match Json.member "status" j with
        | Some (Json.Str "ready") -> ()
        | Some (Json.Str _) -> exit 1
        | _ -> die "health: reply carries no status field")
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Health socket path (what serve --health-socket listens on).")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Probe a service's health socket and print its one-line JSON health document.  Exits \
          0 when status is ready, 1 otherwise — suitable as a container readiness command.")
    Term.(const run $ socket_arg $ wait_arg)

let () =
  let doc = "privacy preserving joins on (simulated) secure coprocessors" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "ppj" ~version:Ppj_obs.Buildinfo.semver ~doc)
          [ run_cmd; trace_cmd; privacy_cmd; cost_cmd; nstar_cmd; csv_join_cmd;
            serve_cmd; submit_cmd; fetch_cmd; gen_cmd; chaos_cmd; loadtest_cmd;
            store_check_cmd; restart_chaos_cmd;
            shardtest_cmd; trace_check_cmd;
            stats_cmd; top_cmd; health_cmd ]))
