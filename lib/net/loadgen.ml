module Ch = Ppj_scpu.Channel
module W = Ppj_relation.Workload
module Rng = Ppj_crypto.Rng
module Service = Ppj_core.Service
module Registry = Ppj_obs.Registry
module Histogram = Ppj_obs.Histogram

type spec = {
  sessions : int;
  rate : float;
  session_deadline : float;
  wall_deadline : float;
  seed : int;
}

let default_spec =
  { sessions = 1200;
    rate = infinity;
    session_deadline = 120.;
    wall_deadline = 600.;
    seed = 42;
  }

let mac_key = "loadtest-mac-key"

type stats = {
  completed : int;
  refused : int;
  wrong : int;
  hung : int;
  max_concurrent : int;
  wall_seconds : float;
  joins_per_sec : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>sessions    completed=%d refused=%d wrong=%d hung=%d@,\
     concurrency peak=%d@,\
     throughput  %.1f joins/sec over %.2f s@,\
     latency     p50=%.4fs p95=%.4fs p99=%.4fs@]"
    s.completed s.refused s.wrong s.hung s.max_concurrent s.joins_per_sec s.wall_seconds s.p50
    s.p95 s.p99

let schema = W.keyed_schema ()

let contract =
  { Ch.contract_id = "loadtest-contract";
    providers = [ "alice"; "bob" ];
    recipient = "carol";
    predicate = "eq(key,key)";
  }

let workload seed =
  let rng = Rng.create (2 * seed + 1) in
  W.equijoin_pair rng ~na:8 ~nb:12 ~matches:9 ~max_multiplicity:3

let config = { Service.m = 4; seed = 7; algorithm = Service.Alg5 }

(* Blocking provider uploads, with a connect-retry window so the run
   can start while the server process is still binding its socket. *)
let setup ~path ~seed =
  let a, b = workload seed in
  let rec connect tries =
    match Transport.connect_unix ~path () with
    | Ok tr -> Ok tr
    | Error e -> if tries <= 0 then Error e else (Unix.sleepf 0.05; connect (tries - 1))
  in
  let submit id rel =
    match connect 200 with
    | Error e -> Error (Printf.sprintf "loadgen setup: %s" e)
    | Ok tr ->
        let c = Client.create tr in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () ->
            Client.submit_relation c
              ~rng:(Rng.create (seed + Hashtbl.hash id))
              ~id ~mac_key ~contract ~schema rel)
  in
  match submit "alice" a with
  | Error _ as e -> e
  | Ok () -> submit "bob" b

type state =
  | Waiting  (* arrival due, or connect refused and to be retried *)
  | Active of { fd : Unix.file_descr; flow : Flow.t }
  | Concluded

type sess = {
  idx : int;
  due : float;  (* open-loop arrival time *)
  mutable state : state;
}

let ( let* ) = Result.bind

let run ?registry ?(spec = default_spec) ~path () =
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let* expected =
    let a, b = workload spec.seed in
    Chaos.oracle config ~contract [ (schema, a); (schema, b) ]
  in
  let* () = setup ~path ~seed:spec.seed in
  let t0 = Unix.gettimeofday () in
  let sessions =
    Array.init spec.sessions (fun idx ->
        let due = if spec.rate = infinity then t0 else t0 +. (float_of_int idx /. spec.rate) in
        { idx; due; state = Waiting })
  in
  let latency = Registry.histogram reg "net.loadtest.session.seconds" in
  let completed = ref 0 and refused = ref 0 and wrong = ref 0 and hung = ref 0 in
  let max_concurrent = ref 0 in
  let remaining = ref spec.sessions in
  let buf = Bytes.create 65536 in
  let conclude s verdict =
    (match s.state with
    | Active { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | _ -> ());
    s.state <- Concluded;
    decr remaining;
    Registry.observe reg "net.loadtest.session.seconds"
      (Unix.gettimeofday () -. s.due);
    incr
      (match verdict with
      | `Completed -> completed
      | `Refused -> refused
      | `Wrong -> wrong
      | `Hung -> hung)
  in
  let settle s flow =
    match Flow.outcome flow with
    | None -> ()
    | Some Flow.Submitted -> conclude s `Refused (* recipients never submit *)
    | Some (Flow.Refused _) -> conclude s `Refused
    | Some (Flow.Delivered tuples) ->
        if List.sort compare tuples = expected then conclude s `Completed
        else conclude s `Wrong
  in
  let try_connect s =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.set_nonblock fd;
      Unix.connect fd (Unix.ADDR_UNIX path)
    with
    | () ->
        let flow =
          Flow.create
            ~rng:(Rng.create (spec.seed + 7919 + s.idx))
            ~id:"carol" ~mac_key ~contract (Flow.Join { config })
        in
        s.state <- Active { fd; flow }
    | exception Unix.Unix_error _ ->
        (* listen backlog full (or the server mid-restart): stay
           Waiting and retry next loop — open-loop, so the delay is
           charged to this session's latency, not forgiven *)
        (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let fd_index : (Unix.file_descr, sess) Hashtbl.t = Hashtbl.create 1024 in
  while !remaining > 0 && Unix.gettimeofday () -. t0 < spec.wall_deadline do
    let now = Unix.gettimeofday () in
    Hashtbl.reset fd_index;
    let read = ref [] and write = ref [] and active = ref 0 in
    Array.iter
      (fun s ->
        (match s.state with
        | Waiting when now >= s.due -> try_connect s
        | _ -> ());
        match s.state with
        | Active { fd; flow } ->
            incr active;
            Hashtbl.replace fd_index fd s;
            read := fd :: !read;
            if Flow.pending flow <> None then write := fd :: !write
        | Waiting | Concluded -> ())
      sessions;
    if !active > !max_concurrent then max_concurrent := !active;
    let readable, writable = Poller.wait ~read:!read ~write:!write ~timeout:0.02 in
    List.iter
      (fun fd ->
        match Hashtbl.find_opt fd_index fd with
        | Some ({ state = Active { fd; flow }; _ } as s) -> (
            match Flow.pending flow with
            | None -> ()
            | Some (b, off) -> (
                match Unix.write_substring fd b off (String.length b - off) with
                | n -> Flow.sent flow n
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
                  -> ()
                | exception Unix.Unix_error _ ->
                    Flow.on_eof flow;
                    settle s flow))
        | _ -> ())
      writable;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt fd_index fd with
        | Some ({ state = Active { fd; flow }; _ } as s) -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 ->
                Flow.on_eof flow;
                settle s flow
            | n ->
                Flow.on_bytes flow (Bytes.sub_string buf 0 n);
                settle s flow
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
            | exception Unix.Unix_error _ ->
                Flow.on_eof flow;
                settle s flow)
        | _ -> ())
      readable;
    (* hung detection: no conclusion within the per-session deadline *)
    let now = Unix.gettimeofday () in
    Array.iter
      (fun s ->
        match s.state with
        | (Waiting | Active _) when now -. s.due > spec.session_deadline -> conclude s `Hung
        | _ -> ())
      sessions
  done;
  (* wall deadline exhausted with sessions still open: they are hung *)
  Array.iter
    (fun s -> match s.state with Waiting | Active _ -> conclude s `Hung | Concluded -> ())
    sessions;
  let wall = Unix.gettimeofday () -. t0 in
  let p50, p95, p99 =
    match Histogram.summary latency with
    | Some s -> (s.Histogram.p50, s.Histogram.p95, s.Histogram.p99)
    | None -> (0., 0., 0.)
  in
  let joins_per_sec = if wall > 0. then float_of_int !completed /. wall else 0. in
  let stats =
    { completed = !completed;
      refused = !refused;
      wrong = !wrong;
      hung = !hung;
      max_concurrent = !max_concurrent;
      wall_seconds = wall;
      joins_per_sec;
      p50;
      p95;
      p99;
    }
  in
  List.iter
    (fun (name, v) -> Registry.set_gauge reg ("net.loadtest." ^ name) v)
    [ ("sessions", float_of_int spec.sessions);
      ("completed", float_of_int stats.completed);
      ("refused", float_of_int stats.refused);
      ("wrong", float_of_int stats.wrong);
      ("hung", float_of_int stats.hung);
      ("max_concurrent", float_of_int stats.max_concurrent);
      ("wall_seconds", stats.wall_seconds);
      ("joins_per_sec", stats.joins_per_sec);
      ("p50_seconds", stats.p50);
      ("p95_seconds", stats.p95);
      ("p99_seconds", stats.p99);
    ];
  Ok stats
