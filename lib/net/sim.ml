module Rng = Ppj_crypto.Rng

type result = {
  outcomes : Flow.outcome option list;
  steps : int;
}

type actor = {
  flow : Flow.t;
  conn : Reactor.conn;
  mutable dead : bool;  (* reactor side torn down *)
}

let max_steps = 500_000
let max_slice = 64

let run ?limits ~seed ~server flows =
  let reactor = Reactor.create ?limits server in
  let rng = Rng.create seed in
  let steps = ref 0 in
  (* one virtual millisecond per scheduler step; this is the only clock
     the reactor's idle eviction ever sees in here *)
  let now () = float_of_int !steps *. 0.001 in
  let actors =
    Array.of_list
      (List.map
         (fun flow ->
           { flow; conn = Reactor.connect reactor ~now:(now ()) ~peer:(Flow.id flow); dead = false })
         flows)
  in
  let slice len = min len (1 + Rng.int rng max_slice) in
  (* A step for one actor moves bytes in one direction.  When both
     directions have traffic the rng picks, so request and reply bytes
     race each other exactly as they do on a real socket. *)
  let step a =
    let c2s () =
      match Flow.pending a.flow with
      | None -> false
      | Some (buf, off) ->
          let n = slice (String.length buf - off) in
          Reactor.feed reactor a.conn ~now:(now ()) (String.sub buf off n);
          Flow.sent a.flow n;
          true
    in
    let s2c () =
      match Reactor.pending a.conn with
      | None -> false
      | Some (buf, off) ->
          let n = slice (String.length buf - off) in
          Reactor.wrote a.conn n;
          Flow.on_bytes a.flow (String.sub buf off n);
          true
    in
    let moved = if Rng.bool rng then c2s () || s2c () else s2c () || c2s () in
    if (not moved) && Reactor.finished a.conn && not a.dead then begin
      (* server said goodbye (eviction/shed) and everything drained *)
      Reactor.close reactor a.conn;
      a.dead <- true;
      Flow.on_eof a.flow
    end
  in
  let unfinished () =
    Array.exists (fun a -> Flow.outcome a.flow = None && not a.dead) actors
  in
  let runnable = Array.make (Array.length actors) 0 in
  while unfinished () && !steps < max_steps do
    (* schedule among sessions that can still make progress *)
    let n = ref 0 in
    Array.iteri
      (fun i a ->
        if Flow.outcome a.flow = None && not a.dead then begin
          runnable.(!n) <- i;
          incr n
        end)
      actors;
    if !n > 0 then step actors.(runnable.(Rng.int rng !n));
    incr steps;
    (* evictions the reactor gave up flushing: tear down our end too *)
    List.iter
      (fun c ->
        Array.iter
          (fun a ->
            if a.conn == c && not a.dead then begin
              Reactor.close reactor a.conn;
              a.dead <- true;
              Flow.on_eof a.flow
            end)
          actors)
      (Reactor.sweep reactor ~now:(now ()))
  done;
  Array.iter (fun a -> if not a.dead then Reactor.close reactor a.conn) actors;
  { outcomes = Array.to_list (Array.map (fun a -> Flow.outcome a.flow) actors);
    steps = !steps;
  }
