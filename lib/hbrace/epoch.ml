type t = int

let clock_bits = 47
let none = -1
let is_none e = e < 0

let make ~tid ~clock =
  if tid < 0 || clock < 0 || clock >= 1 lsl clock_bits then
    invalid_arg "Epoch.make";
  (tid lsl clock_bits) lor clock

let tid e = e lsr clock_bits
let clock e = e land ((1 lsl clock_bits) - 1)
let leq_vc e c = is_none e || clock e <= Velodrome_util.Vclock.get c (tid e)
let equal = Int.equal

let pp ppf e =
  if is_none e then Format.fprintf ppf "⊥"
  else Format.fprintf ppf "%d@%d" (clock e) (tid e)
