type t = Random.State.t

let create seed = Random.State.make [| seed; 0x9e3779b9 |]

let split t label =
  let h = Hashtbl.hash label in
  Random.State.make [| Random.State.bits t; h; 0x85ebca6b |]

let int t bound = Random.State.full_int t bound
let float t bound = Random.State.float t bound
let bool t = Random.State.bool t

let bytes t n = String.init n (fun _ -> Char.chr (Random.State.int t 256))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
