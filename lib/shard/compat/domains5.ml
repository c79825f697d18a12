(* OCaml >= 5 backend: job 0 runs on the calling domain and jobs 1..p-1
   on long-lived worker domains.  Running job 0 on the caller keeps p
   domains busy on p cores instead of p + 1, one of them only waiting;
   every minor collection stops all of them.  The job results
   cross back to the calling domain by value; the only shared mutable
   state jobs touch is designed for it — the Mutex-guarded {!Metrics}
   sink, the Atomic-published schedule caches in
   {!Ppj_oblivious.Bitonic}/{!Ppj_oblivious.Oddeven}, and the sort's
   atomic process-wide pad counter.  Each job counts its padding on
   its own coprocessor.
   Selected by the dune copy rule on %{ocaml_version}.

   Workers are spawned on first use and then reused: the pool keeps
   p - 1 of them for the largest p any call has asked for.  A fresh
   domain per job cost a spawn, a join and a new minor heap every call,
   and the process's peak RSS grew with the number of calls.  Idle
   workers wait on a condition variable; they still take part in every
   stop-the-world minor collection, which is their cost.  The pool is
   not capped at the core count: callers may ask for more jobs than
   cores (the race tests run 8 at once). *)

let available = true

(* The cores the runtime would run domains on in parallel. *)
let cores () = Domain.recommended_domain_count ()

let run f x =
  match f x with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ())

(* One call at a time holds [call]; [lock] guards the task slots, which
   the call fills and the workers empty.  [pending] counts posted tasks
   not yet finished. *)
type pool = {
  call : Mutex.t;
  lock : Mutex.t;
  posted : Condition.t;
  finished : Condition.t;
  mutable tasks : (unit -> unit) option array;  (* slot i feeds worker i *)
  mutable pending : int;
}

let pool =
  { call = Mutex.create ();
    lock = Mutex.create ();
    posted = Condition.create ();
    finished = Condition.create ();
    tasks = [||];
    pending = 0;
  }

(* A job calling back into [parallel_map] would wait for the call it is
   part of: workers are marked, and the caller's thread is recorded
   while its call runs, so either case raises instead of deadlocking. *)
let on_worker = Domain.DLS.new_key (fun () -> false)
let caller = Atomic.make (-1)

let rec work i =
  Mutex.lock pool.lock;
  while Option.is_none pool.tasks.(i) do
    Condition.wait pool.posted pool.lock
  done;
  let task = Option.get pool.tasks.(i) in
  pool.tasks.(i) <- None;
  Mutex.unlock pool.lock;
  (* never raises: the task records its job's outcome *)
  task ();
  Mutex.lock pool.lock;
  pool.pending <- pool.pending - 1;
  if pool.pending = 0 then Condition.signal pool.finished;
  Mutex.unlock pool.lock;
  work i

(* Called with [call] held, so no task is posted while slots grow.  A
   slot exists only for a worker that was spawned. *)
let ensure_workers n =
  while Array.length pool.tasks < n do
    let i = Array.length pool.tasks in
    Mutex.lock pool.lock;
    pool.tasks <- Array.append pool.tasks [| None |];
    Mutex.unlock pool.lock;
    match
      Domain.spawn (fun () ->
          Domain.DLS.set on_worker true;
          work i)
    with
    | (_ : unit Domain.t) -> ()
    | exception e ->
        Mutex.lock pool.lock;
        pool.tasks <- Array.sub pool.tasks 0 i;
        Mutex.unlock pool.lock;
        raise e
  done

(* Every job has finished before any job's exception propagates, so none
   is still running (and reporting to a shared sink) once the caller
   sees the failure; the lowest job's exception wins. *)
let parallel_map f xs =
  let self = Thread.id (Thread.self ()) in
  if Domain.DLS.get on_worker || Atomic.get caller = self then
    invalid_arg "Domains_compat.parallel_map: called from inside one of its jobs";
  let n = Array.length xs in
  if n <= 1 then Array.map f xs
  else begin
    Mutex.lock pool.call;
    let results =
      Fun.protect
        ~finally:(fun () ->
          Atomic.set caller (-1);
          Mutex.unlock pool.call)
        (fun () ->
          Atomic.set caller self;
          ensure_workers (n - 1);
          let results = Array.make n None in
          Mutex.lock pool.lock;
          for i = 1 to n - 1 do
            pool.tasks.(i - 1) <- Some (fun () -> results.(i) <- Some (run f xs.(i)))
          done;
          pool.pending <- n - 1;
          Condition.broadcast pool.posted;
          Mutex.unlock pool.lock;
          results.(0) <- Some (run f xs.(0));
          Mutex.lock pool.lock;
          while pool.pending > 0 do
            Condition.wait pool.finished pool.lock
          done;
          Mutex.unlock pool.lock;
          results)
    in
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end
