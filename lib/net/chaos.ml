module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module P = Ppj_relation.Predicate
module Tuple = Ppj_relation.Tuple
module Rng = Ppj_crypto.Rng
module Service = Ppj_core.Service
module Registry = Ppj_obs.Registry
module Counter = Ppj_obs.Counter
module Recorder = Ppj_obs.Recorder
module Trace_ctx = Ppj_obs.Trace_ctx
module Plan = Ppj_fault.Plan
module Injector = Ppj_fault.Injector

type outcome =
  | Correct
  | Tamper of string
  | Refused of string
  | Wrong of string

type run = {
  seed : int;
  plan : string;
  outcome : outcome;
  crashes : int;
  injected : int;
}

let safe r = match r.outcome with Wrong _ -> false | _ -> true

let outcome_to_string = function
  | Correct -> "correct"
  | Tamper m -> "tamper-detected: " ^ m
  | Refused m -> "refused: " ^ m
  | Wrong m -> "WRONG ANSWER: " ^ m

let ( let* ) = Result.bind

let oracle config ~contract rels =
  (* In-process parties carry throwaway secrets: the delivered plaintext
     does not depend on them. *)
  let party id = Ch.party ~id ~secret:(String.make 16 id.[0]) in
  let run =
    let* predicate = P.parse contract.Ch.predicate in
    let submissions =
      List.map2
        (fun id (schema, rel) ->
          let p = party id in
          (p, schema, Ch.submit p contract rel))
        contract.Ch.providers rels
    in
    Service.run config ~contract ~submissions ~recipient:(party contract.Ch.recipient) ~predicate
  in
  match run with
  | Ok o -> Ok (List.sort compare (List.map Tuple.encode o.Service.delivered))
  | Error e -> Error ("oracle failed: " ^ e)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let judge ~expected = function
  | Error e -> if contains ~sub:"tamper" e then Tamper e else Refused e
  | Ok tuples ->
      let got = List.sort compare (List.map Tuple.encode tuples) in
      if got = expected then Correct
      else
        Wrong
          (Printf.sprintf "expected %d tuples, delivered %d" (List.length expected)
             (List.length got))

let record reg r =
  let count ?by s = Counter.incr ?by (Registry.counter reg ("chaos." ^ s)) in
  (* create every headline counter, so exports carry it even at zero *)
  List.iter (count ~by:0) [ "correct"; "tamper"; "refused"; "wrong" ];
  count "runs";
  count
    (match r.outcome with
    | Correct -> "correct"
    | Tamper _ -> "tamper"
    | Refused _ -> "refused"
    | Wrong _ -> "wrong");
  count ~by:r.injected "faults.injected";
  count ~by:r.crashes "crashes"

let soak ?registry ?(seed0 = 1) ~runs trial =
  List.init runs (fun i ->
      let r = trial (seed0 + i) in
      Option.iter (fun reg -> record reg r) registry;
      r)

type tally = {
  runs : int;
  correct : int;
  resumed : int;
  tamper : int;
  refused : int;
  wrong : int;
  faults : int;
}

let tally rs =
  let count p = List.length (List.filter p rs) in
  { runs = List.length rs;
    correct = count (fun r -> r.outcome = Correct);
    resumed = count (fun r -> r.outcome = Correct && r.crashes > 0);
    tamper = count (fun r -> match r.outcome with Tamper _ -> true | _ -> false);
    refused = count (fun r -> match r.outcome with Refused _ -> true | _ -> false);
    wrong = count (fun r -> not (safe r));
    faults = List.fold_left (fun n r -> n + r.injected) 0 rs;
  }

let printing ?(verbose = false) trial seed =
  let r = trial seed in
  if verbose || not (safe r) then
    Format.printf "seed %-4d  %-48s  %s@." r.seed r.plan (outcome_to_string r.outcome);
  r

let pp_report ~name ppf rs =
  let t = tally rs in
  Format.fprintf ppf
    "%s: %d runs — %d correct (%d after crash-resume), %d tamper-detected, %d refused, %d \
     wrong; %d fault event(s) fired@."
    name t.runs t.correct t.resumed t.tamper t.refused t.wrong t.faults

(* --- the networked trial --------------------------------------------- *)

let mac_key = "chaos-soak-mac-key"
let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "chaos-contract";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

(* The workload varies with the seed so the soak covers many data shapes,
   but stays small enough that a run is milliseconds while still pushing
   the coprocessor's transfer counter through the window random plans
   schedule their crash/corrupt/replay events in. *)
let workload seed =
  let rng = Rng.create (2 * seed + 1) in
  W.equijoin_pair rng ~na:8 ~nb:12 ~matches:9 ~max_multiplicity:3

let config = { Service.m = 4; seed = 7; algorithm = Service.Alg5 }

(* Nothing in this stack sleeps: the loopback transport answers (or
   stays silent) synchronously, receive timeouts resolve on the first
   poll, and the backoff sleeps are ignored — a chaos run cannot hang,
   only finish. *)
let client_config =
  { Client.default_config with recv_timeout = 0.01; max_retries = 6; sleep = ignore }

let play ?recorder ~client_registry ~faults reactor seed =
  let a, b = workload seed in
  let session k =
    let c =
      Client.create ~config:client_config ~registry:client_registry ?recorder
        (Transport.loopback ~faults reactor)
    in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> k c)
  in
  let submit id rel =
    session (fun c ->
        Client.submit_relation c
          ~rng:(Rng.create (seed + Hashtbl.hash id))
          ~id ~mac_key ~contract ~schema rel)
  in
  let* () = submit "alice" a in
  let* () = submit "bob" b in
  session (fun c ->
      Client.fetch_result c
        ~rng:(Rng.create (seed + 99))
        ~id:"carol" ~mac_key ~contract config)

let wire ?recorder ?server_recorder seed =
  let plan = Plan.random ~seed in
  let faults = Injector.create plan in
  let server_registry = Registry.create () in
  let client_registry = Registry.create () in
  (* The client stamps the recorder's trace id into the attest request,
     where a corrupt-frame event can land on it.  A recorder's own id
     comes from the wall clock and the pid, so give each run one derived
     from its seed: a recorded soak then replays seed for seed.  The
     server adopts whatever id arrives, mangled or not, on its own
     recorder, so the client's items keep the run's id. *)
  let own =
    Trace_ctx.make ~trace_id:(Printf.sprintf "chaos-%d" seed) ~span_id:Trace_ctx.root_span
  in
  List.iter (fun r -> Option.iter (fun r -> Recorder.adopt r own) r) [ recorder; server_recorder ];
  let server =
    Server.create ~registry:server_registry ?recorder:server_recorder ~mac_key ~seed:5 ~faults ()
  in
  let expected =
    let a, b = workload seed in
    match oracle config ~contract [ (schema, a); (schema, b) ] with
    | Ok e -> e
    | Error e -> invalid_arg ("chaos " ^ e)
  in
  let delivered =
    play ?recorder ~client_registry ~faults (Reactor.create server) seed |> Result.map snd
  in
  { seed;
    plan = Plan.to_string plan;
    outcome = judge ~expected delivered;
    crashes = Counter.value (Registry.counter server_registry "net.server.joins.crashed");
    injected = Injector.injected faults;
  }
