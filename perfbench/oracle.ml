(* The correctness gate: every delivery is compared with the plaintext
   join of the inputs it came from, and every attempted op ends in
   exactly one verdict.  Any verdict but [Correct] counts as failed and
   makes the run fail (see [passed]); only [Correct] ops are timed. *)

module Join = Ppj_relation.Join
module Tuple = Ppj_relation.Tuple
module Predicate = Ppj_relation.Predicate

let predicate = Predicate.equijoin2 "key" "key"

(* The plaintext answer, as sorted tuple encodings. *)
let expected a b = List.sort compare (List.map Tuple.encode (Join.nested_loop predicate a b))

let matches ~expected delivered =
  List.sort compare (List.map Tuple.encode delivered) = expected

type verdict =
  | Correct
  | Wrong  (** a delivery that differs from the oracle *)
  | Refused of string  (** a typed error from the program *)
  | Hung of string  (** no reply within the client's retry budget *)
  | Raised of string  (** an exception *)

let verdict_name = function
  | Correct -> "correct"
  | Wrong -> "wrong"
  | Refused _ -> "refused"
  | Hung _ -> "hung"
  | Raised _ -> "raised"

(* Classify a client-side [Error]: the client reports an exhausted retry
   budget as "no reply after N attempt(s)". *)
let of_error msg =
  let hung =
    let needle = "no reply after" in
    let n = String.length needle and l = String.length msg in
    let rec at i = i + n <= l && (String.sub msg i n = needle || at (i + 1)) in
    at 0
  in
  if hung then Hung msg else Refused msg

type tally = {
  mutable attempted : int;
  mutable wrong : int;
  mutable refused : int;
  mutable hung : int;
  mutable raised : int;
  mutable first_failure : string option;
}

let tally () =
  { attempted = 0; wrong = 0; refused = 0; hung = 0; raised = 0; first_failure = None }

let record t v =
  t.attempted <- t.attempted + 1;
  (match v with
  | Correct -> ()
  | Wrong -> t.wrong <- t.wrong + 1
  | Refused _ -> t.refused <- t.refused + 1
  | Hung _ -> t.hung <- t.hung + 1
  | Raised _ -> t.raised <- t.raised + 1);
  match (v, t.first_failure) with
  | Correct, _ | _, Some _ -> ()
  | (Wrong | Refused _ | Hung _ | Raised _), None ->
      t.first_failure <-
        Some
          (match v with
          | Refused m | Hung m | Raised m -> verdict_name v ^ ": " ^ m
          | _ -> verdict_name v)

let failed t = t.wrong + t.refused + t.hung + t.raised

let add into t =
  into.attempted <- into.attempted + t.attempted;
  into.wrong <- into.wrong + t.wrong;
  into.refused <- into.refused + t.refused;
  into.hung <- into.hung + t.hung;
  into.raised <- into.raised + t.raised;
  if into.first_failure = None then into.first_failure <- t.first_failure

(* Run one op and record its verdict; exceptions become [Raised]. *)
let run t f =
  let v = try f () with e -> Raised (Printexc.to_string e) in
  record t v;
  v

(* Definition 3: for inputs of one shape (sizes and output size S) the
   transfer count is fixed, so every op of a workload must report the
   same number.  A second value is a correctness failure. *)
type transfers = { mutable value : int option; mutable varied : bool }

let transfers () = { value = None; varied = false }

let note_transfers tr n =
  match tr.value with
  | None -> tr.value <- Some n
  | Some v -> if v <> n then tr.varied <- true

(* A run passes when it attempted ops, every one was delivered correctly,
   and a transfer count was seen and never varied.  A run that delivers
   nothing — every session refused, hung or raised — fails. *)
let passed t tr = t.attempted > 0 && failed t = 0 && tr.value <> None && not tr.varied
