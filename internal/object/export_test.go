package object

// ReferenceFree exposes the before-image predicate to the package's
// external tests.
var ReferenceFree = referenceFree
