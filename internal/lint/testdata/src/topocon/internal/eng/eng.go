// Fixture internal package: the symbols the fixture facade re-exports.
package eng

// Engine is the fixture engine type.
type Engine struct{}

// New builds an Engine.
func New() *Engine { return &Engine{} }
