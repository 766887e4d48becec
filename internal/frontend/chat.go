package frontend

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ChatMessage is one turn of a chat conversation.
type ChatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// ChatRequest is the accepted subset of the OpenAI chat completions API.
type ChatRequest struct {
	Model       string        `json:"model"`
	Messages    []ChatMessage `json:"messages"`
	MaxTokens   *int          `json:"max_tokens,omitempty"`
	Temperature float64       `json:"temperature,omitempty"`
	Seed        int64         `json:"seed,omitempty"`
	Stream      bool          `json:"stream,omitempty"`
}

// ChatDelta is the incremental message fragment carried by stream chunks.
type ChatDelta struct {
	Role    string `json:"role,omitempty"`
	Content string `json:"content,omitempty"`
}

// ChatStreamChoice is one alternative inside a stream chunk.
type ChatStreamChoice struct {
	Index        int       `json:"index"`
	Delta        ChatDelta `json:"delta"`
	FinishReason string    `json:"finish_reason,omitempty"`
}

// ChatStreamChunk is one SSE event of a streamed chat completion.
type ChatStreamChunk struct {
	ID      string             `json:"id"`
	Object  string             `json:"object"`
	Created int64              `json:"created"`
	Model   string             `json:"model"`
	Choices []ChatStreamChoice `json:"choices"`
}

// ChatChoice is one chat completion alternative.
type ChatChoice struct {
	Index        int         `json:"index"`
	Message      ChatMessage `json:"message"`
	FinishReason string      `json:"finish_reason"`
}

// ChatResponse is the chat completion reply.
type ChatResponse struct {
	ID      string       `json:"id"`
	Object  string       `json:"object"`
	Created int64        `json:"created"`
	Model   string       `json:"model"`
	Choices []ChatChoice `json:"choices"`
	Usage   *Usage       `json:"usage,omitempty"`
}

// validRoles for chat turns.
var validRoles = map[string]bool{"system": true, "user": true, "assistant": true}

// flattenChat renders a conversation into the plain-text prompt format the
// base model consumes: one "role: content" line per turn plus a trailing
// "assistant:" cue.
func flattenChat(msgs []ChatMessage) string {
	var sb strings.Builder
	for _, m := range msgs {
		sb.WriteString(m.Role)
		sb.WriteString(": ")
		sb.WriteString(m.Content)
		sb.WriteString("\n")
	}
	sb.WriteString("assistant:")
	return sb.String()
}

var chat = endpoint{
	path: "/v1/chat/completions", idPrefix: "chatcmpl-", noun: "conversation",
	decode: parseChat,
	reply: func(h header, text, finish string, usage *Usage) any {
		return ChatResponse{ID: h.id, Object: "chat.completion", Created: h.created, Model: h.model,
			Choices: []ChatChoice{{Message: ChatMessage{Role: "assistant", Content: text}, FinishReason: finish}},
			Usage:   usage}
	},
	chunk: func(h header, text, finish string) any { return chatChunk(h, ChatDelta{Content: text}, finish) },
	// The opening chunk announces the assistant role (OpenAI convention).
	open: func(h header) any { return chatChunk(h, ChatDelta{Role: "assistant"}, "") },
}

func chatChunk(h header, delta ChatDelta, finish string) ChatStreamChunk {
	return ChatStreamChunk{ID: h.id, Object: "chat.completion.chunk", Created: h.created, Model: h.model,
		Choices: []ChatStreamChoice{{Delta: delta, FinishReason: finish}}}
}

// parseChat decodes a chat body and flattens its conversation; an empty
// conversation or an unknown role makes the request invalid.
func parseChat(dec *json.Decoder) (genRequest, error) {
	var r ChatRequest
	if err := dec.Decode(&r); err != nil {
		return genRequest{}, err
	}
	g := genRequest{model: r.Model, maxTokens: r.MaxTokens, temperature: r.Temperature,
		stream: r.Stream, seed: r.Seed, text: flattenChat(r.Messages)}
	if len(r.Messages) == 0 {
		g.invalid = &APIError{Message: "messages must not be empty", Type: "invalid_request_error", Code: "invalid_messages"}
	}
	for i, m := range r.Messages {
		if !validRoles[m.Role] {
			g.invalid = &APIError{Message: fmt.Sprintf("messages[%d].role %q is not one of system/user/assistant", i, m.Role),
				Type: "invalid_request_error", Code: "invalid_role"}
			break
		}
	}
	return g, nil
}
