package sptc

// MetaWordsFor returns how many 32-bit metadata words an operand with
// the given packed-slot count occupies on hardware: the mma.sp sparse
// storage format packs 2-bit column selectors 16 to a word.
func MetaWordsFor(slots int) int { return (slots + 15) / 16 }
