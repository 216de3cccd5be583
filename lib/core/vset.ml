type t = int

let max_value = 62

let check v =
  if v < 0 || v >= max_value then invalid_arg "Vset: value out of range";
  v

let empty = 0
let singleton v = 1 lsl check v
let add v s = s lor singleton v
let mem v s = s land singleton v <> 0
let union a b = a lor b
let inter a b = a land b
let is_empty s = s = 0

let cardinal s =
  let rec count acc s = if s = 0 then acc else count (acc + (s land 1)) (s lsr 1) in
  count 0 s

let subset a b = a land lnot b = 0
let equal = Int.equal

(* [elements] walks from the highest set bit down, so the list conses up
   ascending; a set only ever holds checked values.  The helpers take
   [s] as an argument, so a call allocates the list cells and no
   closure. *)
let rec top s v = if s lsr (v + 1) = 0 then v else top s (v + 1)

let rec collect s acc v =
  if v < 0 then acc else collect s (if s land (1 lsl v) <> 0 then v :: acc else acc) (v - 1)

let elements s = if s = 0 then [] else collect s [] (top s 0)

let of_list vs = List.fold_left (fun s v -> add v s) empty vs
let intersects a b = not (is_empty (inter a b))

let pp ppf s =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') Value.pp) (elements s)
