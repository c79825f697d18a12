(** Readiness waits over [poll(2)].

    The reactor and the socket transport ask "which of these descriptors
    are readable/writable within [timeout] seconds".  The answer comes
    from the [poll(2)] binding in [poller_stubs.c]: no descriptor cap
    (where [select] stops at [FD_SETSIZE], 1024 on Linux, below the
    thousands of sessions the loadtest drives), O(n) per call, available
    on every POSIX system this project targets.

    [EINTR] is retried against the caller's original deadline instead of
    surfacing a spurious early timeout (the bug class the old select
    loop had: a signal landing mid-poll truncated the wait and, on the
    client side, was misreported as a receive timeout). *)

val wait :
  read:Unix.file_descr list ->
  write:Unix.file_descr list ->
  timeout:float ->
  Unix.file_descr list * Unix.file_descr list
(** Block until some listed descriptor is ready or [timeout] (seconds)
    elapses; negative timeout means wait forever.  Returns the readable
    and writable subsets (possibly both empty on timeout).  A
    descriptor in an error/hang-up state is reported readable so the
    owner's next read observes the failure.  [EINTR] never shortens the
    wait: the call retries with the time remaining. *)
