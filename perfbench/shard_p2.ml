(* shard-p2: one in-process Coordinator.run_local per op on the Domains
   backend, p = 2, replicate partitioning, Algorithm 4 slices,
   |A| = 16, |B| = 24, S = 8, m = 4. *)

module Coordinator = Ppj_shard.Coordinator
module Partitioner = Ppj_shard.Partitioner
module Merge = Ppj_shard.Merge
module Metrics = Ppj_shard.Metrics
module Instance = Ppj_core.Instance
module Sharded = Ppj_core.Sharded
module Service = Ppj_core.Service
module Decoy = Ppj_relation.Decoy
module Recorder = Ppj_obs.Recorder
module Registry = Ppj_obs.Registry
module Snapshot = Ppj_obs.Snapshot

let config =
  { Coordinator.p = 2; m = 4; seed = 7; inner = Service.Alg4; strategy = Partitioner.Replicate }

(* One op and its verdict.  Every op reports to the run's [Metrics]
   sink, as a deployment with shard metrics on does. *)
let op ?recorder ~metrics ~seed ~tally ~transfers i =
  let a, b = Inputs.shard_pair ~seed i in
  let expected = Oracle.expected a b in
  Util.timed (fun () ->
      Oracle.run tally (fun () ->
          Util.span recorder "shard.run_local" (fun () ->
              match
                Coordinator.run_local ~metrics ~backend:Coordinator.Domains config
                  ~predicate:Oracle.predicate [ a; b ]
              with
              | Error e -> Oracle.Refused e
              | Ok o ->
                  Oracle.note_transfers transfers
                    (Array.fold_left ( + ) 0 o.Coordinator.per_shard_transfers);
                  if Oracle.matches ~expected o.Coordinator.results then Oracle.Correct
                  else Oracle.Wrong)))

(* run_local keeps no state between calls: a fresh process is ready once
   the configuration validates. *)
let ready () = match Coordinator.validate config with Ok () -> () | Error e -> failwith e

(* run_local's steps, each run alone and timed from outside on op 1's
   inputs: the screen that learns S, each slice on its own instance, and
   the oblivious merge of the slices' streams; each the median of
   [repeats] runs. *)
let repeats = 9

let decompose ~seed =
  let a, b = Inputs.shard_pair ~seed 1 in
  let rels = [ a; b ] in
  let screen () =
    let inst = Instance.create ~m:config.m ~seed:config.seed ~predicate:Oracle.predicate rels in
    (inst, Instance.oracle_size inst)
  in
  let probe, s = screen () in
  let slices =
    List.init config.p (fun k ->
        Probes.median_replica repeats (fun () ->
            Probes.replica ~m:config.m ~seed:(config.seed + (1000 * k))
              ~run:(fun inst -> Sharded.alg4 inst ~k ~p:config.p ~s)
              rels))
  in
  let merge () =
    let merged, _ =
      Merge.run ~pad:(Instance.decoy probe)
        ~is_real:(fun o -> not (Decoy.is_decoy o))
        (List.map (fun r -> r.Probes.otuples) slices)
    in
    ignore (List.map (Instance.decode_result probe) merged)
  in
  ( Util.ms (Probes.median_of repeats (fun () -> ignore (screen ()))),
    slices,
    Util.ms (Probes.median_of repeats merge) )

(* [cold_start ()] times one cold start of a fresh process; an untraced
   run takes one before every [cold_start_every]-th op, so the set-up
   samples span the run as the ops do. *)
let cold_start_every = 8

let run ~dir ~seed ~seconds ~trace ~cold_start =
  let tally = Oracle.tally () and transfers = Oracle.transfers () in
  ready ();
  let recorder = if trace then Some (Recorder.create ~name:"bench-shard" ()) else None in
  let metrics = Metrics.create () in
  let setup = ref [] in
  let t0 = Util.now () in
  (* When tracing, odd ops run untraced and even ops traced.  Only
     correct ops are timed; the loop stops on time whatever the verdicts,
     after at least one op of each kind. *)
  let rec loop i plain traced =
    if Util.now () -. t0 >= seconds && i > if trace then 2 else 1 then
      (List.rev plain, List.rev traced)
    else
      let traced_op = trace && i mod 2 = 0 in
      if (not trace) && i mod cold_start_every = 1 then setup := cold_start () :: !setup;
      match
        op ?recorder:(if traced_op then recorder else None) ~metrics ~seed ~tally ~transfers i
      with
      | Oracle.Correct, sample when traced_op -> loop (i + 1) plain (sample :: traced)
      | Oracle.Correct, sample -> loop (i + 1) (sample :: plain) traced
      | (Oracle.Wrong | Oracle.Refused _ | Oracle.Hung _ | Oracle.Raised _), _ ->
          loop (i + 1) plain traced
  in
  let samples, traced = loop 1 [] [] in
  let op_ms l = List.map Util.ms l in
  let p50 = Util.median (op_ms samples) in
  let lines =
    [ Printf.sprintf "ops %d (%d untraced)" (List.length samples + List.length traced)
        (List.length samples);
      Printf.sprintf "op_p50_ms %.2f (n=%d)" p50 (List.length samples) ]
    @
    if trace then []
    else
      [ Printf.sprintf "setup_s %.5f (median of %d cold starts)" (Util.median !setup)
          (List.length !setup) ]
  in
  let e2e =
    [ Util.metric "setup_s" "s" (Util.median !setup);
      Util.metric "peak_rss_mb" "MB" (Util.peak_rss_mb 0);
      Util.metric "ops_per_s" "1/s"
        (float_of_int (List.length samples) /. List.fold_left ( +. ) 0. samples);
      Util.metric "op_p50_ms" "ms" p50;
      Util.metric "join_p50_ms" "ms" p50;
      Util.metric "transfers_per_op" "count"
        (Option.fold ~none:nan ~some:float_of_int transfers.Oracle.value) ]
  in
  let layers =
    match (recorder, traced) with
    | None, _ | _, [] -> None
    | Some rc, _ :: _ ->
        let t = Layers.create () in
        Probes.set_fixed_shape t ~dir:(Filename.concat dir "append-probe");
        let screen_ms, slices, merge_ms = decompose ~seed in
        let slice_ms r = r.Probes.instance_ms +. r.Probes.join_ms in
        let slowest = List.fold_left (fun a r -> Float.max a (slice_ms r)) 0. slices in
        let whole = Probes.sum_counts slices in
        Probes.set_replica t whole ~joins_per_op:1.;
        Probes.set_common t whole;
        Layers.set t "shard.screen_ms" screen_ms;
        Layers.set t "shard.slice_ms" (slice_ms (List.hd slices));
        Layers.set t "shard.merge_ms" merge_ms;
        (* the sink holds the last op's per-shard transfers and merge *)
        let sink = Registry.snapshot (Metrics.registry metrics) in
        let read ?labels name =
          match Snapshot.find ?labels sink name with
          | Some { Snapshot.value = Snapshot.Counter c; _ } -> float_of_int c
          | Some { Snapshot.value = Snapshot.Gauge g; _ } -> g
          | _ -> failwith ("shard metrics sink: no " ^ name)
        in
        Layers.set t "shard.merge_comparators" (read "shard.merge.comparators");
        let per_shard =
          List.init config.p (fun k ->
              read ~labels:[ ("co", string_of_int k) ] "shard.co.transfers")
        in
        Layers.set t "shard.balance"
          (List.fold_left Float.max 0. per_shard /. Util.mean per_shard);
        let alone =
          screen_ms +. List.fold_left (fun a r -> a +. slice_ms r) 0. slices +. merge_ms
        in
        Layers.set t "shard.speedup" (alone /. p50);
        Layers.set t "shard.parallel_overhead_ms" (p50 -. screen_ms -. slowest -. merge_ms);
        Layers.set t "residual_ms"
          (Util.mean (op_ms traced) -. (screen_ms +. slowest +. merge_ms));
        Layers.set t "trace.overhead_pct" (100. *. (Util.median (op_ms traced) -. p50) /. p50);
        Some (t, [ rc ], [])
  in
  (tally, transfers, e2e, lines, layers)
