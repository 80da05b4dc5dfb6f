package object

import "reflect"

// ReferenceFree and BinaryLayout expose the two halves of a type's form
// to the package's external tests.
func ReferenceFree(t reflect.Type) bool { return walk(t).flat }

func BinaryLayout(t reflect.Type) bool { return walk(t).binary }
