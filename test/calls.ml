(* The protocol calls a counting wrapper saw during one layer call: the
   work-bound tests fail when a layer runs a protocol function twice on
   one input. *)

let seen : (string, unit) Hashtbl.t = Hashtbl.create 64

(* [once key] records a call on the input named [key], and fails the
   test if the layer call already made one. *)
let once key =
  if Hashtbl.mem seen key then Alcotest.failf "%s ran twice in one layer" key;
  Hashtbl.add seen key ()

(* The mask of the indices whose entry is [Some _]. *)
let mask entries =
  let m = ref 0 in
  Array.iteri (fun i e -> if Option.is_some e then m := !m lor (1 lsl i)) entries;
  !m

(* [check layer mixed] runs [layer] on [mixed n] for n = 3, 4 and 5,
   and on every state of a depth-2 walk from [mixed 3], forgetting the
   recorded calls before each. *)
let check layer mixed =
  let expand x =
    Hashtbl.reset seen;
    layer x
  in
  List.iter (fun n -> ignore (expand (mixed n))) [ 3; 4; 5 ];
  List.iter (fun y -> List.iter (fun z -> ignore (expand z)) (expand y)) (expand (mixed 3))
