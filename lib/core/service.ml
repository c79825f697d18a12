module Channel = Ppj_scpu.Channel
module Attestation = Ppj_scpu.Attestation
module Coprocessor = Ppj_scpu.Coprocessor
module Recorder = Ppj_obs.Recorder
module Host = Ppj_scpu.Host
module Schema = Ppj_relation.Schema
module Tuple = Ppj_relation.Tuple
module Predicate = Ppj_relation.Predicate
module Decoy = Ppj_relation.Decoy

type algorithm =
  | Alg1 of { n : int }
  | Alg2 of { n : int }
  | Alg3 of { n : int; attr_a : string; attr_b : string }
  | Alg4
  | Alg5
  | Alg6 of { eps : float }
  | Alg7 of { attr_a : string; attr_b : string }
  | Alg8 of { attr_a : string; attr_b : string }
  | Auto of { max_eps : float }
  | Sharded of { k : int; p : int; inner : algorithm }

type config = { m : int; seed : int; algorithm : algorithm }

type outcome = { report : Report.t; delivered : Tuple.t list }

let attested_layers =
  [ { Attestation.name = "miniboot"; code = "ppj-miniboot-v1" };
    { Attestation.name = "os"; code = "ppj-cpos-v1" };
    { Attestation.name = "app"; code = "ppj-join-service-v1" }
  ]

let ( let* ) = Result.bind

let device_key = "ppj-device-master-key!!"

let attestation_chain () = Attestation.certify ~device_key attested_layers

let verify_chain chain =
  let expected = List.map Attestation.layer_digest attested_layers in
  Attestation.verify ~device_key ~expected chain

(* [Auto]'s choice: the planner's cheapest Chapter 5 algorithm at the
   screened S. *)
let planned ~m ~max_eps inst ~s =
  match fst (Planner.choose ~l:(Instance.l inst) ~s ~m ~max_eps ()) with
  | Planner.Use_alg4 -> Alg4
  | Planner.Use_alg5 -> Alg5
  | Planner.Use_alg6 { eps } -> Alg6 { eps }
  | Planner.Use_alg8 ->
      (* Unreachable: the planner only proposes Algorithm 8 when given
         [ab], which [Auto] cannot supply (no attrs). *)
      invalid_arg "Auto: planner proposed Alg8 without attributes"

let coprocessor_seed config =
  match config.algorithm with
  | Sharded { k; _ } -> config.seed + (1000 * k)
  | _ -> config.seed

let rec run_algorithm config inst =
  match config.algorithm with
  | Sharded { k; p; inner } ->
      Sharded.check ~k ~p;
      (* The shard holds the full relations (replicate partitioning);
         the public total S comes from the untraced §4.3 screening pass,
         exactly like [Auto]'s planner input. *)
      let s = Instance.oracle_size inst in
      let inner =
        match inner with Auto { max_eps } -> planned ~m:config.m ~max_eps inst ~s | i -> i
      in
      (* The ambient shard label: the oblivious layer's pad gauges report
         one series per slice, even when several slices share a process. *)
      Ppj_obs.Ambient.with_labels
        [ ("shard", string_of_int k) ]
        (fun () ->
          match inner with
          | Alg4 -> Sharded.alg4 inst ~k ~p ~s
          | Alg5 -> Sharded.alg5 inst ~k ~p ~s
          | Alg6 { eps } ->
              Sharded.alg6 inst ~k ~p ~s ~shared_seed:(Sharded.shared_seed config.seed) ~eps
          | Alg8 { attr_a; attr_b } -> Sharded.alg8 inst ~k ~p ~attr_a ~attr_b
          | Alg1 _ | Alg2 _ | Alg3 _ | Alg7 _ | Auto _ | Sharded _ ->
              invalid_arg "Sharded: inner algorithm must be Alg4, Alg5, Alg6, Alg8 or Auto");
      Report.collect inst
        ~stats:[ ("S", float_of_int s); ("shard", float_of_int k); ("p", float_of_int p) ]
        ()
  | Alg1 { n } -> Algorithm1.run inst ~n
  | Alg2 { n } -> Algorithm2.run inst ~n ()
  | Alg3 { n; attr_a; attr_b } -> Algorithm3.run inst ~n ~attr_a ~attr_b ()
  | Alg4 -> Algorithm4.run inst ()
  | Alg5 -> Algorithm5.run inst
  | Alg6 { eps } -> fst (Algorithm6.run inst ~eps ())
  | Alg7 { attr_a; attr_b } -> fst (Algorithm7.run inst ~attr_a ~attr_b)
  | Alg8 { attr_a; attr_b } -> fst (Algorithm8.run inst ~attr_a ~attr_b)
  | Auto { max_eps } ->
      (* Screening inside T to learn S, then plan. *)
      let s = Instance.oracle_size inst in
      run_algorithm { config with algorithm = planned ~m:config.m ~max_eps inst ~s } inst

exception Join_crashed of { inst : Instance.t; transfer : int }

let rec algorithm_name = function
  | Alg1 _ -> "alg1"
  | Alg2 _ -> "alg2"
  | Alg3 _ -> "alg3"
  | Alg4 -> "alg4"
  | Alg5 -> "alg5"
  | Alg6 _ -> "alg6"
  | Alg7 _ -> "alg7"
  | Alg8 _ -> "alg8"
  | Auto _ -> "auto"
  | Sharded { k; p; inner } -> Printf.sprintf "%s[%d/%d]" (algorithm_name inner) k p

(* The resume span hangs under the {e original} join span — which has
   already ended by the time a crashed join is retried, possibly in a
   later server round trip — so the crash–resume–retry sequence reads as
   one connected tree in the exported trace. *)
let with_resume_span inst f =
  match Instance.recorder inst with
  | None -> f ()
  | Some r ->
      Recorder.with_span r ?parent:(Instance.join_span inst)
        ~attrs:[ ("attempt", Recorder.int (Instance.resumes inst + 1)) ]
        "resume" f

let with_join_span ?recorder config inst f =
  match recorder with
  | None -> f ()
  | Some r ->
      Recorder.with_span r
        ~attrs:
          [ ("algorithm", Recorder.sym (algorithm_name config.algorithm));
            ("m", Recorder.int config.m)
          ]
        "join"
        (fun () ->
          (match Recorder.current_span_id r with
          | Some id -> Instance.set_join_span inst id
          | None -> ());
          f ())

let execute_join ?faults ?checkpoint_every ?on_checkpoint ?nvram_init ?recorder ?event_batch
    ?(max_resumes = 0) config ~predicate rels =
  let inst =
    Instance.create ?recorder ?event_batch ?faults ?checkpoint_every ?on_checkpoint ?nvram_init
      ~m:config.m ~seed:(coprocessor_seed config) ~predicate rels
  in
  let rec attempt resumes_left =
    match run_algorithm config inst with
    | report -> report
    | exception Coprocessor.Crashed { transfer } ->
        if resumes_left <= 0 then raise (Join_crashed { inst; transfer })
        else
          with_resume_span inst (fun () ->
              Instance.recover inst;
              attempt (resumes_left - 1))
  in
  (inst, with_join_span ?recorder config inst (fun () -> attempt max_resumes))

let resume_join config inst =
  (* One recovery per call: if the replacement coprocessor also crashes
     (a plan can carry several crash events), the caller — typically a
     server answering a retrying client — gets [Join_crashed] again and
     may call back. *)
  with_resume_span inst (fun () ->
      Instance.recover inst;
      match run_algorithm config inst with
      | report -> (inst, report)
      | exception Coprocessor.Crashed { transfer } -> raise (Join_crashed { inst; transfer }))

let result_otuples inst =
  (* T re-reads the disk batches and decrypts them: the plaintext oTuple
     stream (reals still interleaved with decoys). *)
  let co = Instance.co inst in
  let host = Coprocessor.host co in
  List.map (Coprocessor.decrypt_for_recipient co) (Host.disk host)

let seal_otuples inst ~recipient ~contract otuples =
  let body () = Channel.seal_result recipient contract otuples in
  match Instance.recorder inst with
  | None -> body ()
  | Some r -> Recorder.with_span r "output" body

let seal_to inst ~recipient ~contract =
  seal_otuples inst ~recipient ~contract (result_otuples inst)

let open_delivery ~schema ~recipient ~contract sealed =
  let* reals = Channel.open_result recipient contract sealed in
  Ok (List.map (fun o -> Tuple.decode schema (Decoy.payload o)) reals)

let accept_all contract submissions =
  List.fold_left
    (fun acc (party, schema, submission) ->
      let* rels = acc in
      let* rel = Channel.accept party contract schema submission in
      Ok (rel :: rels))
    (Ok []) submissions
  |> Result.map List.rev

let run ?recorder config ~contract ~submissions ~recipient ~predicate =
  (* Every phase runs under a wall-clock span; the spans land in the
     report's metrics next to the per-region transfer counters.  With a
     recorder, the same phases open flight-recorder spans too. *)
  let reg = Ppj_obs.Registry.create () in
  let phase name f =
    let f =
      match recorder with
      | None -> f
      | Some r -> fun () -> Recorder.with_span r ("phase." ^ name) f
    in
    Ppj_obs.Registry.span ~labels:[ ("phase", name) ] reg "service.phase.seconds" f
  in
  (* Outbound authentication: the requestors check the service's chain
     before entrusting it with data (§3.3.3). *)
  let attested = phase "attestation" (fun () -> verify_chain (attestation_chain ())) in
  if not attested then Error "outbound authentication failed"
  else
    let* rels = phase "submission_verify" (fun () -> accept_all contract submissions) in
    let inst, report = phase "join" (fun () -> execute_join ?recorder config ~predicate rels) in
    let* delivered =
      phase "sealing" (fun () ->
          let sealed = seal_to inst ~recipient ~contract in
          open_delivery ~schema:(Instance.joined_schema inst) ~recipient ~contract sealed)
    in
    let report =
      { report with
        Report.metrics =
          Ppj_obs.Snapshot.union report.Report.metrics (Ppj_obs.Registry.snapshot reg)
      }
    in
    Ok { report; delivered }
