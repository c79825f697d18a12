external poll_stub :
  Unix.file_descr array -> int array -> int array -> int -> int = "ppj_poll_stub"

let now () = Unix.gettimeofday ()

(* [timeout < 0] waits forever, otherwise EINTR retries use whatever is
   left of the original budget rather than restarting (or, worse,
   aborting) it. *)
let deadline_of timeout = if timeout < 0. then None else Some (now () +. timeout)

let remaining = function
  | None -> -1.
  | Some d -> Stdlib.max 0. (d -. now ())

let wait ~read ~write ~timeout =
  let deadline = deadline_of timeout in
  (* Merge the two interest lists: one pollfd per descriptor, whatever
     combination of read/write interest it appears with. *)
  let interest : (Unix.file_descr, int) Hashtbl.t = Hashtbl.create 64 in
  let mark bit fd =
    let prev = match Hashtbl.find_opt interest fd with Some e -> e | None -> 0 in
    Hashtbl.replace interest fd (prev lor bit)
  in
  List.iter (mark 1) read;
  List.iter (mark 2) write;
  let n = Hashtbl.length interest in
  let fds = Array.make n Unix.stdin in
  let events = Array.make n 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun fd ev ->
      fds.(!i) <- fd;
      events.(!i) <- ev;
      incr i)
    interest;
  let revents = Array.make n 0 in
  let rec go () =
    let left = remaining deadline in
    let timeout_ms =
      if left < 0. then -1 else int_of_float (Float.ceil (left *. 1000.))
    in
    match poll_stub fds events revents timeout_ms with
    | -1 (* EINTR *) ->
        if timeout_ms >= 0 && remaining deadline <= 0. then ([], []) else go ()
    | 0 -> ([], [])
    | _ ->
        let r = ref [] and w = ref [] in
        for j = n - 1 downto 0 do
          if revents.(j) land 1 <> 0 then r := fds.(j) :: !r;
          if revents.(j) land 2 <> 0 then w := fds.(j) :: !w
        done;
        (!r, !w)
  in
  go ()
